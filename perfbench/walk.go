package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/live"
	"rfipad/internal/llrp"
	"rfipad/internal/obs"
	"rfipad/internal/replay"
	"rfipad/internal/supervise"
)

// Span names. Each names the layer call it surrounds; recognize and
// compose are children of a poll, attributed from the program's
// rfipad_stage_seconds histograms rather than timed around a call.
const (
	spanPlate     = "bench.plate"
	spanReplay    = "replay.frame"
	spanDecode    = "llrp.decode"
	spanSanitize  = "core.sanitize"
	spanPrelude   = "live.prelude"
	spanCalibrate = "live.calibrate"
	spanFold      = "core.fold"
	spanPoll      = "core.poll"
	spanRecognize = "core.recognize"
	spanCompose   = "grammar.compose"
	spanTransfer  = "supervise.transfer"
	spanRestore   = "live.restore"
)

// span is one timed call. Times are nanoseconds since the walk began;
// Parent indexes the walk's span list (-1 for a plate's root).
type span struct {
	name       string
	trace      int
	parent     int
	start, end int64
	count      int
}

// layerTotals accumulates one span name's calls.
type layerTotals struct {
	calls    int
	dur      time.Duration // summed self time
	readings int
	objects  uint64
	bytes    uint64
}

// walker replays a workload's inputs from one goroutine through the
// layers' public calls, recording a span around each call.
type walker struct {
	t0    time.Time
	spans []span
	reg   *obs.Registry
	cfg   live.Config
	san   *core.Sanitizer
	dec   frameDecoder
	wire  bytes.Buffer
	reps  []llrp.TagReport
	cols  core.ReadingBatch
	// alloc is the runtime/metrics pair read around recognizer calls.
	alloc []metrics.Sample

	stage   struct{ segment, disturbance, classify, direction, grammar *obs.Histogram }
	windows *obs.Counter

	layers map[string]*layerTotals
	// batchLayers are the layers every frame passes: replay, decode,
	// sanitize.
	batchLayers [3]*layerTotals
	// polls counts calls that end on a frame crossing; splitErrors
	// counts calls that ran more than one segmentation (the cut model
	// disagreed with the recognizer).
	polls, splitErrors int
	pollObjects        uint64
	pollBytes          uint64
	windowPollBytes    uint64 // bytes of polls that ran RecognizeWindow
	windowPolls        int
	calibrations       []time.Duration
	frameBytes         int
	readings           int
	// measuring is the time spent reading allocation counters and stage
	// histograms around calls: the benchmark's own cost inside the walk.
	measuring time.Duration
	cpu       time.Duration
}

func newWalker() *walker {
	reg := obs.NewRegistry()
	w := &walker{
		reg:    reg,
		cfg:    live.Config{Obs: reg},
		san:    core.NewSanitizer(reg),
		layers: map[string]*layerTotals{},
		alloc:  []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}},
	}
	hist := func(stage string) *obs.Histogram {
		return reg.Histogram("rfipad_stage_seconds", "", nil, obs.L("stage", stage))
	}
	w.stage.segment = hist(core.StageSegment)
	w.stage.disturbance = hist(core.StageDisturbance)
	w.stage.classify = hist(core.StageClassify)
	w.stage.direction = hist(core.StageDirection)
	w.stage.grammar = hist(core.StageGrammar)
	w.windows = reg.Counter("rfipad_windows_total", "")
	for i, name := range []string{spanReplay, spanDecode, spanSanitize} {
		w.batchLayers[i] = w.layer(name)
	}
	return w
}

func (w *walker) now() int64 { return int64(time.Since(w.t0)) }

func (w *walker) begin(name string, trace, parent int) int {
	w.spans = append(w.spans, span{name: name, trace: trace, parent: parent, start: w.now()})
	return len(w.spans) - 1
}

func (w *walker) end(i, count int) {
	w.spans[i].end = w.now()
	w.spans[i].count = count
}

// child records an attributed child span of duration d inside parent.
func (w *walker) child(name string, parent int, d time.Duration) {
	p := w.spans[parent]
	w.spans = append(w.spans, span{name: name, trace: p.trace, parent: parent, start: p.start, end: p.start + int64(d)})
}

func (w *walker) allocs() (uint64, uint64) {
	metrics.Read(w.alloc)
	return w.alloc[0].Value.Uint64(), w.alloc[1].Value.Uint64()
}

func (w *walker) recognizeSum() float64 {
	return w.stage.disturbance.Sum() + w.stage.classify.Sum() + w.stage.direction.Sum()
}

// gate mirrors the recognizer's poll gate from the outside: the stream
// polls right after a reading that moves its newest time into a new
// frame.
type gate struct {
	now  time.Duration
	last int64
}

// stream is one plate's walk state.
type stream struct {
	id          string
	trace, root int
	st          *live.Stream
	g           gate
	out         *plateOut
}

// ingest feeds a sanitized batch, cut so that each IngestBatch call
// either only folds or ends in exactly one poll (or completes
// calibration).
func (w *walker) ingest(s *stream, b *core.ReadingBatch) error {
	n := b.Len()
	for i := 0; i < n; {
		// Cutting the batch is the benchmark's own work: it counts as
		// measuring, from here to the call's span.
		t0 := w.now()
		j, name := i, spanFold
		if !s.st.Calibrated() {
			for j < n && b.Times[j] < calibDuration {
				j++
			}
			name = spanPrelude
			if j < n {
				j++
				name = spanCalibrate
			}
		} else {
			for j < n {
				t := b.Times[j]
				j++
				s.g.now = max(s.g.now, t)
				if f := int64(s.g.now / frameLen); f != s.g.last {
					s.g.last = f
					name = spanPoll
					break
				}
			}
		}
		if err := w.call(s, b.Slice(i, j), name, t0); err != nil {
			return err
		}
		if name == spanCalibrate {
			s.g = gate{last: -1}
		}
		i = j
	}
	return nil
}

// call runs one IngestBatch (or the final Flush when sub is nil) under
// a span, with allocation and stage-histogram deltas around it. The
// time from t0 to the span and after it is the walk's own measuring.
func (w *walker) call(s *stream, sub core.ReadingBatch, name string, t0 int64) error {
	seg0, win0, rec0, gr0 := w.stage.segment.Count(), w.windows.Value(), w.recognizeSum(), w.stage.grammar.Sum()
	obj0, b0 := w.allocs()
	sp := w.begin(name, s.trace, s.root)
	defer func() {
		w.measuring += time.Duration(w.now() - w.spans[sp].end + w.spans[sp].start - t0)
	}()
	var evs []core.Event
	var err error
	if name == spanPoll && sub.Len() == 0 {
		evs = s.st.Flush()
	} else {
		evs, err = s.st.IngestBatch(&sub)
	}
	w.end(sp, sub.Len())
	obj1, b1 := w.allocs()
	if err != nil {
		return err
	}
	for _, ev := range evs {
		s.out.record(ev)
	}
	lt := w.layer(name)
	lt.readings += sub.Len()
	lt.objects += obj1 - obj0
	lt.bytes += b1 - b0
	switch name {
	case spanCalibrate:
		w.calibrations = append(w.calibrations, time.Duration(w.spans[sp].end-w.spans[sp].start))
	case spanPoll:
		w.polls++
		if w.stage.segment.Count()-seg0 > 1 {
			w.splitErrors++
		}
		w.pollObjects += obj1 - obj0
		w.pollBytes += b1 - b0
		if w.windows.Value() > win0 {
			w.windowPolls++
			w.windowPollBytes += b1 - b0
		}
		if d := w.recognizeSum() - rec0; d > 0 {
			w.child(spanRecognize, sp, time.Duration(d*1e9))
		}
		if d := w.stage.grammar.Sum() - gr0; d > 0 {
			w.child(spanCompose, sp, time.Duration(d*1e9))
		}
	case spanFold, spanPrelude:
		if w.stage.segment.Count() != seg0 {
			w.splitErrors++
		}
	}
	return nil
}

func (w *walker) layer(name string) *layerTotals {
	lt := w.layers[name]
	if lt == nil {
		lt = &layerTotals{}
		w.layers[name] = lt
	}
	return lt
}

// frame passes reports through the wire, the sanitizer and the stream:
// encode as a reader would (finishing the replay span sp the caller
// opened to produce them), decode (llrp span), sanitize, ingest.
func (w *walker) frame(s *stream, sp int, reps []llrp.TagReport) error {
	w.wire.Reset()
	err := encodeFrame(&w.wire, reps)
	w.end(sp, len(reps))
	if err != nil {
		return err
	}
	w.frameBytes += w.wire.Len()
	w.cols.Reset()
	sp = w.begin(spanDecode, s.trace, s.root)
	_, err = w.dec.decode(&w.wire, &w.cols)
	w.end(sp, len(reps))
	if err != nil {
		return err
	}
	sp = w.begin(spanSanitize, s.trace, s.root)
	w.san.AdmitColumns(&w.cols, s.st.LastTime())
	w.end(sp, len(reps))
	for _, lt := range w.batchLayers {
		lt.readings += len(reps)
	}
	w.readings += len(reps)
	return w.ingest(s, &w.cols)
}

// move hands the stream over as the handoff workload does: checkpoint,
// RFCP frame out and back, restore with SkipTo.
func (w *walker) move(s *stream) error {
	sp := w.begin(spanTransfer, s.trace, s.root)
	cp, err := transfer(s.st, s.id)
	w.end(sp, 0)
	if err != nil {
		return err
	}
	sp = w.begin(spanRestore, s.trace, s.root)
	restored, err := live.RestoreStream(w.cfg, cp)
	w.end(sp, 0)
	if err != nil {
		return err
	}
	s.st = restored
	s.g = gate{now: cp.FrameCursor, last: int64(cp.FrameCursor / frameLen)}
	return nil
}

// transfer checkpoints a stream and passes the checkpoint through an
// RFCP transfer frame.
func transfer(st *live.Stream, id string) (supervise.Checkpoint, error) {
	cp, ok := st.Checkpoint(id)
	if !ok {
		return cp, fmt.Errorf("perfbench: checkpoint of an uncalibrated stream %s", id)
	}
	var buf bytes.Buffer
	if err := supervise.WriteCheckpoint(&buf, cp); err != nil {
		return cp, err
	}
	return supervise.ReadCheckpoint(&buf)
}

// walk replays every plate of a workload, one after the other.
func walk(wl string, scripts []*script) (*walker, []plateOut, error) {
	w := newWalker()
	outs := make([]plateOut, len(scripts))
	w.t0 = time.Now()
	cpu0 := processCPU()
	for n, sc := range scripts {
		outs[n].want = sc.text()
		s := &stream{id: string(sc.id), trace: n, st: live.NewStream(w.cfg), g: gate{last: -1}, out: &outs[n]}
		s.root = w.begin(spanPlate, n, -1)
		var err error
		switch wl {
		case "wire":
			err = w.wirePlate(s, sc)
		default:
			err = w.closedPlate(s, sc, wl == "handoff")
		}
		w.end(s.root, 0)
		if err != nil {
			return nil, nil, err
		}
	}
	w.cpu = processCPU() - cpu0
	w.selfTimes()
	return w, outs, nil
}

// closedPlate feeds a plate in the closed-loop workloads' batches, with
// the handoff workload's cuts and resume overlap when handoff is set.
func (w *walker) closedPlate(s *stream, sc *script, handoff bool) error {
	cut := time.Duration(1 << 62)
	if handoff {
		cut = calibDuration + sc.phase + handoffPeriod
	}
	calibrated := sc.calibrated()
	var lastSent time.Duration
	for at := (pos{}); at.less(sc.end()); {
		if sc.timeAt(at) >= cut {
			if err := w.move(s); err != nil {
				return err
			}
			cut += handoffPeriod
			at = sc.seekAfter(lastSent - replay.DefaultResumeOverlap)
			continue
		}
		max := batchReadings
		if at.less(calibrated) {
			// The prelude goes in its own batches, as set-up pushes it.
			max = min(max, sc.index(calibrated)-sc.index(at))
		}
		sp := w.begin(spanReplay, s.trace, s.root)
		w.cols.Reset()
		next := sc.fill(&w.cols, at, max, cut)
		w.reps = sc.reports(w.reps[:0], at, next)
		lastSent = w.reps[len(w.reps)-1].Timestamp
		if err := w.frame(s, sp, w.reps); err != nil {
			return err
		}
		at = next
	}
	return nil
}

// wirePlate feeds a plate in the reader emulator's batches and flushes
// at stream end, as engine.RunStream does.
func (w *walker) wirePlate(s *stream, sc *script) error {
	sp := w.begin(spanReplay, s.trace, s.root)
	src := replay.NewSource(sc.materialize(), replay.Options{Speed: 1e12, Batch: wireBatch, Obs: w.reg})
	w.end(sp, 0)
	for {
		sp := w.begin(spanReplay, s.trace, s.root)
		batch, ok := src.Next()
		if !ok {
			w.end(sp, 0)
			break
		}
		if err := w.frame(s, sp, batch); err != nil {
			return err
		}
	}
	return w.call(s, core.ReadingBatch{}, spanPoll, w.now())
}

// selfTimes folds every span's self time (its duration less its
// children's) into the per-layer totals.
func (w *walker) selfTimes() {
	self := make([]time.Duration, len(w.spans))
	for i, sp := range w.spans {
		self[i] += time.Duration(sp.end - sp.start)
		if sp.parent >= 0 {
			self[sp.parent] -= time.Duration(sp.end - sp.start)
		}
	}
	for i, sp := range w.spans {
		lt := w.layer(sp.name)
		lt.calls++
		lt.dur += self[i]
	}
}

// writeSpans writes every span as one CSV line: name, trace (plate),
// parent index, start and end in ns since the walk began, readings.
func (w *walker) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "name,trace,parent,start_ns,end_ns,readings")
	for _, sp := range w.spans {
		fmt.Fprintf(bw, "%s,%d,%d,%d,%d,%d\n", sp.name, sp.trace, sp.parent, sp.start, sp.end, sp.count)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
