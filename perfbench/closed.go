package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/engine"
	"rfipad/internal/live"
	"rfipad/internal/obs"
	"rfipad/internal/replay"
	"rfipad/internal/supervise"
)

// handoffPeriod is how much stream time a plate spends on one engine in
// the handoff workload before it moves. It is fixed and deliberately
// unrelated to the stroke and lap timing, so cuts land anywhere in a
// stroke. At a shorter period the feeders spend most of their time
// waiting out moves, the engines starve in turns, and throughput
// follows that interplay rather than the program.
const handoffPeriod = 97300 * time.Millisecond

// setupReps is how many times a run builds its system; setup_s is the
// median.
const setupReps = 21

// engineRun is everything an untraced run measured.
type engineRun struct {
	outs   []plateOut
	setups []time.Duration
	ph     phaseResult
	// readings is what the engines ingested during the measured phase.
	readings int64
	// offered counts the readings the workload meant to deliver, once
	// each; resent the overlap it replays on purpose after a handoff.
	offered, resent int64
	// failed counts readings that never reached a healthy recognizer.
	failed    int64
	conserved bool
	moves     []moveTimes
	pushWaits []time.Duration
	// lag is how late the generator ran per batch: scheduled-to-sent on
	// the open loop, the time to cut a batch on the closed loops.
	lag        []time.Duration
	queueP95   float64
	overflow   uint64
	dropped    uint64
	reconnects int
	errs       []error
}

// moveTimes is one stream's move between engines.
type moveTimes struct {
	evict, transfer, adopt time.Duration
	bytes                  int
}

func (m moveTimes) total() time.Duration { return m.evict + m.transfer + m.adopt }

// migrate moves a calibrated stream from one engine to the other: evict,
// ship the checkpoint through an RFCP transfer frame, adopt.
func migrate(from, to *engine.Engine, id engine.StreamID) (moveTimes, error) {
	var m moveTimes
	t0 := time.Now()
	cp, ok := from.EvictStream(id)
	t1 := time.Now()
	if !ok {
		return m, fmt.Errorf("perfbench: evict %s refused", id)
	}
	var buf bytes.Buffer
	if err := supervise.WriteCheckpoint(&buf, cp); err != nil {
		return m, err
	}
	m.bytes = buf.Len()
	cp, err := supervise.ReadCheckpoint(&buf)
	if err != nil {
		return m, err
	}
	t2 := time.Now()
	if err := to.AdoptStream(id, cp); err != nil {
		return m, fmt.Errorf("perfbench: adopt %s: %w", id, err)
	}
	m.evict, m.transfer, m.adopt = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	return m, nil
}

// system is one built instance of the system under test.
type system struct {
	reg  *obs.Registry
	engs []*engine.Engine
}

func newSystem(workers []int, pl plates) *system {
	sys := &system{reg: obs.NewRegistry()}
	for _, w := range workers {
		sys.add(w, pl)
	}
	return sys
}

// add starts one more engine on the system's registry.
func (s *system) add(workers int, pl plates) *engine.Engine {
	e := engine.New(engine.Config{
		Workers: workers,
		Stream:  live.Config{Obs: s.reg},
		Obs:     s.reg,
		OnEvent: pl.onEvent,
	})
	s.engs = append(s.engs, e)
	return e
}

func (s *system) counter(name string) uint64 { return s.reg.Counter(name, "").Value() }

// waitCalibrated waits until n streams have calibrated. It yields
// rather than sleeps between looks: a sleep's timer slack would be a
// sizable share of a closed-loop set-up of a few milliseconds.
func (s *system) waitCalibrated(n int) error {
	g := s.reg.Gauge("engine_streams_calibrated", "")
	deadline := time.Now().Add(30 * time.Second)
	for g.Value() < float64(n) {
		if time.Now().After(deadline) {
			return errors.New("perfbench: streams did not calibrate")
		}
		runtime.Gosched()
	}
	return nil
}

// close shuts every engine and reports any stream that ended in error.
func (s *system) close() []error {
	var errs []error
	for _, e := range s.engs {
		for _, r := range e.Close() {
			if r.Err != nil {
				errs = append(errs, fmt.Errorf("stream %s: %w", r.ID, r.Err))
			}
		}
	}
	return errs
}

// account fills in the reading conservation check and the failure count
// from the engines' counters: everything pushed was either ingested or
// counted as dropped.
func (s *system) account(r *engineRun, pushed int64) {
	ingested := int64(s.counter("engine_readings_total"))
	dropped := int64(s.counter("engine_dropped_readings_total"))
	rejected := int64(0)
	for _, reason := range []string{"phase", "rss", "time_regression"} {
		rejected += int64(s.reg.Counter("readings_rejected_total", "", obs.L("reason", reason)).Value())
	}
	r.conserved = pushed == ingested+dropped
	r.failed = dropped + rejected + max(0, pushed-ingested-dropped)
	r.overflow = s.counter("engine_overflow_total")
	r.dropped = uint64(dropped)
	r.queueP95 = histQuantileMs(s.reg, "engine_event_latency_seconds", 0.95)
}

// histQuantileMs merges every series of a histogram family and returns
// its q-quantile in milliseconds (0 when empty).
func histQuantileMs(reg *obs.Registry, name string, q float64) float64 {
	var bounds []float64
	var counts []uint64
	for _, p := range reg.Snapshot().Points {
		if p.Name != name {
			continue
		}
		if counts == nil {
			counts = make([]uint64, len(p.Buckets))
			for _, b := range p.Buckets {
				bounds = append(bounds, b.UpperBound)
			}
		}
		for i, b := range p.Buckets {
			counts[i] += b.Count
		}
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		if cum+float64(c) >= rank && c > 0 {
			hi := bounds[i]
			if hi > 1e300 {
				return lo * 1e3
			}
			return (lo + (hi-lo)*(rank-cum)/float64(c)) * 1e3
		}
		cum += float64(c)
	}
	return bounds[len(bounds)-1] * 1e3
}

// feeder is one plate's closed-loop input cursor.
type feeder struct {
	pr  *plateRun
	at  pos
	eng int // engine currently owning the stream
}

// prelude pushes a plate's calibration prelude (set-up, not measured).
func (f *feeder) prelude(eng *engine.Engine) (int64, error) {
	stop := f.pr.s.calibrated()
	var pushed int64
	for f.at.less(stop) {
		b := core.GetBatch()
		next := f.pr.s.fill(b, f.at, min(batchReadings, f.pr.s.index(stop)-f.pr.s.index(f.at)), 1<<62)
		pushed += int64(b.Len())
		if !eng.PushBatchWait(f.pr.s.id, b) {
			return pushed, engine.ErrClosed
		}
		f.at = next
	}
	return pushed, nil
}

// push cuts the next batch (up to until) and pushes it with
// backpressure, recording the generator's cut time and the push wait.
func (f *feeder) push(eng *engine.Engine, until time.Duration, lag, waits *[]time.Duration) (int, time.Duration, error) {
	t0 := time.Now()
	b := core.GetBatch()
	next := f.pr.s.fill(b, f.at, batchReadings, until)
	n := b.Len()
	last := b.Times[n-1]
	t1 := time.Now()
	f.pr.push(b.Times[0], last, t1)
	ok := eng.PushBatchWait(f.pr.s.id, b)
	*waits = append(*waits, time.Since(t1))
	*lag = append(*lag, t1.Sub(t0))
	if !ok {
		return 0, 0, engine.ErrClosed
	}
	f.at = next
	return n, last, nil
}

// setupClosed builds the system setupReps times, each time pushing every
// plate's calibration prelude (and, with probe, the prober's) and
// waiting until all have calibrated; the last build is kept for the
// measured phase.
func setupClosed(workers []int, probe bool, r *engineRun, pl plates, prs []*plateRun) (*system, []*feeder, *prober, int64, error) {
	for rep := 0; ; rep++ {
		start := time.Now()
		sys := newSystem(workers, pl)
		feeders := make([]*feeder, len(prs))
		var pushed int64
		for n, pr := range prs {
			feeders[n] = &feeder{pr: pr, eng: n % len(workers)}
			p, err := feeders[n].prelude(sys.engs[feeders[n].eng])
			pushed += p
			if err != nil {
				return nil, nil, nil, 0, err
			}
		}
		var pb *prober
		streams := len(prs)
		if probe {
			var p int64
			var err error
			if pb, p, err = sys.addProber(prs[0].s, pl); err != nil {
				return nil, nil, nil, 0, err
			}
			pushed += p
			streams++
		}
		if err := sys.waitCalibrated(streams); err != nil {
			return nil, nil, nil, 0, err
		}
		r.setups = append(r.setups, time.Since(start))
		if rep == setupReps-1 {
			return sys, feeders, pb, pushed, nil
		}
		r.errs = append(r.errs, sys.close()...)
	}
}

// runWrite is the write workload: one generator goroutine round-robins
// 256-reading batches of every plate into one engine.
func runWrite(scripts []*script) (*engineRun, error) {
	pl, prs := newPlates(scripts)
	r := &engineRun{}
	sys, feeders, pb, pushed, err := setupClosed([]int{runtime.GOMAXPROCS(0)}, true, r, pl, prs)
	if err != nil {
		return nil, err
	}
	eng := sys.engs[0]
	batches := 0
	for _, s := range scripts {
		batches += s.readings()/batchReadings + 1
		r.offered += int64(s.readings())
	}
	r.lag = make([]time.Duration, 0, batches)
	r.pushWaits = make([]time.Duration, 0, batches)
	for _, pr := range prs {
		pr.pushes = make([]pushRec, 0, pr.s.readings()/batchReadings+1)
	}

	ingested0 := sys.counter("engine_readings_total")
	ph := startPhase()
	err = pb.during(func() error {
		for active := len(feeders); active > 0; {
			active = 0
			for _, f := range feeders {
				if !f.at.less(f.pr.s.end()) {
					continue
				}
				active++
				n, _, err := f.push(eng, 1<<62, &r.lag, &r.pushWaits)
				if err != nil {
					return err
				}
				pushed += int64(n)
			}
		}
		return evictAll(sys, feeders)
	})
	r.ph = ph.end()
	if err != nil {
		return nil, err
	}
	r.readings = int64(sys.counter("engine_readings_total") - ingested0)
	r.moves = pb.moves
	finish(sys, r, pushed, prs)
	return r, nil
}

// evictAll evicts every plate from its engine: the barrier that ends a
// measured phase, since each eviction queues behind the plate's
// batches.
func evictAll(sys *system, feeders []*feeder) error {
	for _, f := range feeders {
		if _, ok := sys.engs[f.eng].EvictStream(f.pr.s.id); !ok {
			return fmt.Errorf("perfbench: evict %s refused", f.pr.s.id)
		}
	}
	return nil
}

// finish closes the system and accounts for every reading pushed.
func finish(sys *system, r *engineRun, pushed int64, prs []*plateRun) {
	r.errs = append(r.errs, sys.close()...)
	sys.account(r, pushed)
	r.outs = outs(prs)
}

// outs snapshots every plate's output once its engines are closed.
func outs(prs []*plateRun) []plateOut {
	o := make([]plateOut, len(prs))
	for n, pr := range prs {
		pr.mu.Lock()
		o[n] = pr.plateOut
		pr.mu.Unlock()
	}
	return o
}

// runHandoff is the handoff workload: one feeder goroutine per plate
// and two single-worker engines. Every handoffPeriod of stream time the
// feeder moves its plate to the other engine and resumes
// replay.DefaultResumeOverlap before the cut, as a reconnecting reader
// would.
func runHandoff(scripts []*script) (*engineRun, error) {
	pl, prs := newPlates(scripts)
	r := &engineRun{}
	sys, feeders, _, pushed, err := setupClosed([]int{1, 1}, false, r, pl, prs)
	if err != nil {
		return nil, err
	}
	type feedOut struct {
		pushed, resent int64
		lag, waits     []time.Duration
		moves          []moveTimes
		err            error
	}
	fo := make([]feedOut, len(feeders))
	for n, f := range feeders {
		r.offered += int64(f.pr.s.readings())
		fo[n].lag = make([]time.Duration, 0, f.pr.s.readings()/batchReadings+64)
		fo[n].waits = make([]time.Duration, 0, f.pr.s.readings()/batchReadings+64)
		f.pr.pushes = make([]pushRec, 0, f.pr.s.readings()/batchReadings+64)
	}

	ingested0 := sys.counter("engine_readings_total")
	ph := startPhase()
	var wg sync.WaitGroup
	for n, f := range feeders {
		wg.Add(1)
		go func(f *feeder, o *feedOut) {
			defer wg.Done()
			s := f.pr.s
			cut := calibDuration + s.phase + handoffPeriod
			var lastSent time.Duration
			for f.at.less(s.end()) {
				if s.timeAt(f.at) >= cut {
					m, err := migrate(sys.engs[f.eng], sys.engs[1-f.eng], s.id)
					if err != nil {
						o.err = err
						return
					}
					o.moves = append(o.moves, m)
					f.eng = 1 - f.eng
					cut += handoffPeriod
					resume := s.seekAfter(lastSent - replay.DefaultResumeOverlap)
					o.resent += int64(s.index(f.at) - s.index(resume))
					f.at = resume
					continue
				}
				n, last, err := f.push(sys.engs[f.eng], cut, &o.lag, &o.waits)
				if err != nil {
					o.err = err
					return
				}
				o.pushed += int64(n)
				lastSent = last
			}
		}(f, &fo[n])
	}
	wg.Wait()
	err = evictAll(sys, feeders)
	r.ph = ph.end()
	if err != nil {
		return nil, err
	}
	r.readings = int64(sys.counter("engine_readings_total") - ingested0)
	for _, o := range fo {
		if o.err != nil {
			return nil, o.err
		}
		pushed += o.pushed
		r.resent += o.resent
		r.lag = append(r.lag, o.lag...)
		r.pushWaits = append(r.pushWaits, o.waits...)
		r.moves = append(r.moves, o.moves...)
	}
	finish(sys, r, pushed, prs)
	return r, nil
}
