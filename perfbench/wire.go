package main

import (
	"context"
	"errors"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rfipad/internal/engine"
	"rfipad/internal/llrp"
	"rfipad/internal/replay"
)

const (
	// wireSpeed is the reader emulators' replay speed: fast enough for
	// a run to hold a few hundred events, far below what decode and
	// recognition sustain, so the feed stays open loop.
	wireSpeed = 120
	// wireBatch is the emulators' report batching window.
	wireBatch = 50 * time.Millisecond
)

// pacedSource is a reader emulator's report source: a paced replay
// that remembers when it started serving, so every batch's scheduled
// send time (and how late it actually went out) is known.
type pacedSource struct {
	src   *replay.Source
	cuts  []time.Duration // each batch's cut, in stream time
	ends  []int           // index one past each batch's last report
	times []time.Duration

	start  atomic.Int64 // unix nanos of the first Next
	mu     sync.Mutex
	served int
	lag    []time.Duration
	seeked bool
}

func newPacedSource(reports []llrp.TagReport, opts replay.Options) *pacedSource {
	p := &pacedSource{src: replay.NewSource(reports, opts), times: make([]time.Duration, len(reports))}
	for i, rep := range reports {
		p.times[i] = rep.Timestamp
	}
	// The same cut rule replay.Source applies.
	for i := 0; i < len(reports); {
		cut := reports[i].Timestamp + opts.Batch
		for i < len(reports) && reports[i].Timestamp < cut {
			i++
		}
		p.cuts = append(p.cuts, cut)
		p.ends = append(p.ends, i)
	}
	return p
}

// scheduled is when a batch was due to be sent.
func (p *pacedSource) scheduled(batch int) time.Time {
	return time.Unix(0, p.start.Load()).Add(p.cuts[batch] / wireSpeed)
}

// Next implements llrp.ReportSource.
func (p *pacedSource) Next() ([]llrp.TagReport, bool) {
	if p.start.Load() == 0 {
		p.start.Store(time.Now().UnixNano())
	}
	batch, ok := p.src.Next()
	if ok {
		p.mu.Lock()
		if !p.seeked && p.served < len(p.cuts) {
			p.lag = append(p.lag, time.Since(p.scheduled(p.served)))
		}
		p.served++
		p.mu.Unlock()
	}
	return batch, ok
}

// Seek implements llrp.SeekableSource. A resumed replay restarts its
// schedule, so lateness is no longer tracked.
func (p *pacedSource) Seek(t time.Duration) {
	p.mu.Lock()
	p.seeked = true
	p.mu.Unlock()
	p.src.Seek(t)
}

// due maps an event's stream time to the scheduled send time of the
// reading that triggered it: the event fires on the reading whose time
// is At.
func (p *pacedSource) due(at time.Duration) (time.Time, bool) {
	i := sort.Search(len(p.times), func(i int) bool { return p.times[i] >= at })
	if i == len(p.times) || p.times[i] != at || p.start.Load() == 0 {
		return time.Time{}, false
	}
	b := sort.Search(len(p.ends), func(b int) bool { return p.ends[b] > i })
	return p.scheduled(b), true
}

// wireSystem is one built wire workload: an engine plus, per plate, an
// LLRP reader emulator on loopback and a session draining it.
type wireSystem struct {
	*system
	probe    *prober
	pushed   int64 // readings the prober's prelude pushed
	cancel   context.CancelFunc
	srvs     []*llrp.Server
	sessions []*llrp.Session
	sources  []*pacedSource
	serving  sync.WaitGroup
	running  sync.WaitGroup
	runErrs  []error
}

// startWire dials every plate's emulator and starts draining it.
func startWire(seed int64, captures [][]llrp.TagReport, prs []*plateRun, pl plates, workers int) (*wireSystem, error) {
	ctx, cancel := context.WithCancel(context.Background())
	w := &wireSystem{system: newSystem([]int{workers}, pl), cancel: cancel}
	w.runErrs = make([]error, len(prs))
	var err error
	if w.probe, w.pushed, err = w.addProber(prs[0].s, pl); err != nil {
		cancel()
		return nil, err
	}
	w.probe.push = w.engs[0]
	for n, pr := range prs {
		src := newPacedSource(captures[n], replay.Options{Speed: wireSpeed, Batch: wireBatch, Obs: w.reg})
		w.sources = append(w.sources, src)
		srv := llrp.NewServer(func() llrp.ReportSource { return src })
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			w.stop()
			return nil, err
		}
		w.srvs = append(w.srvs, srv)
		w.serving.Add(1)
		go func() {
			defer w.serving.Done()
			_ = srv.Serve(ln) // returns net.ErrClosed once stop closes it
		}()
		sess, err := llrp.DialSession(ctx, llrp.SessionConfig{
			Addr:       ln.Addr().String(),
			JitterSeed: seed,
			Obs:        w.reg,
		})
		if err != nil {
			w.stop()
			return nil, err
		}
		w.sessions = append(w.sessions, sess)
		w.running.Add(1)
		go func(n int, id engine.StreamID) {
			defer w.running.Done()
			w.runErrs[n] = w.engs[0].RunStream(id, sess)
		}(n, pr.s.id)
	}
	return w, nil
}

// stop closes sessions and emulators and waits for their goroutines.
func (w *wireSystem) stop() {
	for _, s := range w.sessions {
		s.Close()
	}
	w.cancel()
	w.running.Wait()
	for _, srv := range w.srvs {
		srv.Close()
	}
	w.serving.Wait()
}

// runWire is the wire workload: open-loop paced reader emulators over
// loopback TCP into llrp.DialSession → engine.RunStream, one connection
// per plate.
func runWire(seed int64, scripts []*script, workers int) (*engineRun, error) {
	pl, prs := newPlates(scripts)
	r := &engineRun{}
	captures := make([][]llrp.TagReport, len(scripts))
	var served int64
	for n, s := range scripts {
		captures[n] = s.materialize()
		served += int64(len(captures[n]))
	}
	r.offered = served
	var w *wireSystem
	for rep := 0; rep < setupReps; rep++ {
		// Discarded builds report to throwaway plates.
		hook := pl
		if rep < setupReps-1 {
			hook, _ = newPlates(scripts)
		}
		start := time.Now()
		var err error
		w, err = startWire(seed, captures, prs, hook, workers)
		if err != nil {
			return nil, err
		}
		if err := w.waitCalibrated(len(prs) + 1); err != nil {
			w.stop()
			w.close()
			return nil, err
		}
		r.setups = append(r.setups, time.Since(start))
		if rep < setupReps-1 {
			w.stop()
			r.errs = append(r.errs, w.close()...)
		}
	}
	for n, pr := range prs {
		pr.mu.Lock()
		pr.due = w.sources[n].due
		pr.mu.Unlock()
	}

	ingested0 := w.counter("engine_readings_total")
	ph := startPhase()
	feeders := make([]*feeder, len(prs))
	for n, pr := range prs {
		feeders[n] = &feeder{pr: pr}
	}
	err := w.probe.during(func() error {
		w.running.Wait()
		return evictAll(w.system, feeders)
	})
	r.ph = ph.end()
	if err != nil {
		w.stop()
		return nil, err
	}
	r.readings = int64(w.counter("engine_readings_total")-ingested0) - w.probe.pushed
	w.stop()
	r.moves = w.probe.moves
	r.pushWaits = w.probe.waits
	for n, e := range w.runErrs {
		if e != nil {
			r.errs = append(r.errs, errors.Join(errors.New(string(prs[n].s.id)), e))
		}
		r.reconnects += w.sessions[n].Stats().Reconnects
		src := w.sources[n]
		src.mu.Lock()
		r.lag = append(r.lag, src.lag...)
		if src.seeked {
			r.errs = append(r.errs, errors.New("perfbench: reader emulator resumed mid-run"))
		}
		src.mu.Unlock()
	}
	finish(w.system, r, served+w.pushed+w.probe.pushed, prs)
	return r, nil
}
