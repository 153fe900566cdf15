package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"rfipad"
	"rfipad/internal/core"
	"rfipad/internal/engine"
	"rfipad/internal/live"
	"rfipad/internal/llrp"
	"rfipad/internal/replay"
)

const (
	// calibDuration is the engine's default calibration prelude.
	calibDuration = 3 * time.Second
	// frameLen is the segmenter's default frame, which the traced walk
	// mirrors the recognizer's poll gate with.
	frameLen = 100 * time.Millisecond
	// batchReadings is the columnar batch size the closed-loop feeders
	// push (and the frame size inputs are encoded in).
	batchReadings = 256
)

// alphabet is split into one chunk per plate; together the chunks cover
// A–Z, so every grammar branch and all 13 motions occur in a run.
var alphabet = []string{"ABCD", "EFG", "HIJ", "KLM", "NOP", "QRS", "TUVW", "XYZ"}

// segment is one synthesized capture as it arrives off the wire: the
// reports after an encode/decode round trip (phase, RSS and time are
// quantized exactly as a reader's frames quantize them) and the same
// readings as columns. Times are relative to the segment start.
type segment struct {
	text    string
	reports []llrp.TagReport
	cols    core.ReadingBatch
	// period is the segment's length rounded up to a whole frame plus
	// one frame of gap: the least offset of the next segment.
	period time.Duration
}

// script is one plate's whole input: its segments cycled count times,
// each shifted to start where the previous one's period ends plus a
// sub-frame offset (a writer's strokes are not aligned to the
// recognizer's frames), and the static prefix of the next segment as a
// quiet tail that closes the last letter.
type script struct {
	id   engine.StreamID
	segs []segment
	// phase offsets the handoff workload's first cut.
	phase  time.Duration
	count  int
	starts []time.Duration // start of lap k, for k ≤ count
	cum    []int           // readings before lap k, for k ≤ count
	tail   int             // readings of lap count that are fed
}

// pos addresses one reading of a script: lap k, index i in that lap's
// segment.
type pos struct{ k, i int }

func (p pos) less(q pos) bool { return p.k < q.k || (p.k == q.k && p.i < q.i) }

func (s *script) seg(k int) *segment { return &s.segs[k%len(s.segs)] }

// end is the position one past the script's last reading.
func (s *script) end() pos { return pos{s.count, s.tail} }

// normalize rolls a position past the end of its lap into the next.
func (s *script) normalize(p pos) pos {
	for p.k < s.count && p.i >= s.seg(p.k).cols.Len() {
		p = pos{p.k + 1, 0}
	}
	return p
}

// timeAt returns the stream time of the reading at p.
func (s *script) timeAt(p pos) time.Duration {
	return s.starts[p.k] + s.seg(p.k).cols.Times[p.i]
}

// limit is how many readings of lap k are fed.
func (s *script) limit(k int) int {
	if k == s.count {
		return s.tail
	}
	return s.seg(k).cols.Len()
}

// index is the ordinal of the reading at p.
func (s *script) index(p pos) int { return s.cum[p.k] + p.i }

// readings counts every reading of the script.
func (s *script) readings() int { return s.index(s.end()) }

// fill appends up to max readings from p that are earlier than until
// to dst, and returns the position after the last one appended.
func (s *script) fill(dst *core.ReadingBatch, p pos, max int, until time.Duration) pos {
	for max > 0 && p.less(s.end()) {
		sg := s.seg(p.k)
		lim := s.limit(p.k)
		j := p.i + max
		if j > lim {
			j = lim
		}
		off := s.starts[p.k]
		// Readings at or past until stay for the next call.
		j = p.i + sort.Search(j-p.i, func(n int) bool { return sg.cols.Times[p.i+n]+off >= until })
		if j == p.i {
			return p
		}
		base := dst.Len()
		dst.AppendColumns(sg.cols.Times[p.i:j], sg.cols.Phases[p.i:j], sg.cols.RSS[p.i:j], sg.cols.TagIndices[p.i:j])
		for n := base; n < dst.Len(); n++ {
			dst.Times[n] += off
		}
		max -= j - p.i
		p = s.normalize(pos{p.k, j})
	}
	return p
}

// reports appends the wire reports for [p, q) to dst, shifted to
// stream time.
func (s *script) reports(dst []llrp.TagReport, p, q pos) []llrp.TagReport {
	for p.less(q) {
		sg := s.seg(p.k)
		j := s.limit(p.k)
		if p.k == q.k {
			j = q.i
		}
		off := s.starts[p.k]
		for _, rep := range sg.reports[p.i:j] {
			rep.Timestamp += off
			dst = append(dst, rep)
		}
		p = s.normalize(pos{p.k, j})
	}
	return dst
}

// seekAfter returns the position of the first reading later than t —
// where a resumed feed restarts.
func (s *script) seekAfter(t time.Duration) pos {
	k := sort.Search(s.count+1, func(k int) bool { return s.starts[k] > t }) - 1
	if k < 0 {
		return pos{}
	}
	sg := s.seg(k)
	i := sort.Search(s.limit(k), func(i int) bool { return s.starts[k]+sg.cols.Times[i] > t })
	return s.normalize(pos{k, i})
}

// calibrated returns the position after the reading that completes the
// calibration prelude: everything before it is set-up.
func (s *script) calibrated() pos {
	sg := s.seg(0)
	i := sort.Search(sg.cols.Len(), func(i int) bool { return sg.cols.Times[i] >= calibDuration })
	return s.normalize(pos{0, i + 1})
}

// text is what the plate writes over the whole script.
func (s *script) text() string {
	var b []byte
	for k := 0; k < s.count; k++ {
		b = append(b, s.seg(k).text...)
	}
	return string(b)
}

// materialize returns every report of the script in stream time (what
// a reader emulator serves).
func (s *script) materialize() []llrp.TagReport {
	return s.reports(make([]llrp.TagReport, 0, s.readings()), pos{}, s.end())
}

// newScript laps segs count times and closes with a static tail. rng
// draws each lap's sub-frame offset, in whole microseconds so the wire
// codec carries every timestamp exactly.
func newScript(id engine.StreamID, segs []segment, count int, quiet time.Duration, rng *rand.Rand) *script {
	s := &script{id: id, segs: segs, count: count,
		starts: make([]time.Duration, count+1), cum: make([]int, count+1)}
	for k := 1; k <= count; k++ {
		jitter := time.Duration(rng.Int63n(int64(frameLen/time.Microsecond))) * time.Microsecond
		s.starts[k] = s.starts[k-1] + s.seg(k-1).period + jitter
		s.cum[k] = s.cum[k-1] + s.seg(k-1).cols.Len()
	}
	last := s.seg(count)
	s.tail = sort.Search(last.cols.Len(), func(i int) bool { return last.cols.Times[i] >= quiet })
	return s
}

// spec names one plate's capture: the plate's static prelude, then
// groups written one after the other. Each group becomes one segment.
type spec struct {
	seed    int64
	groups  []string
	prelude time.Duration
	writer  rfipad.User
}

// synthesize builds every plate's segments, a few plates at a time (the
// simulator is CPU-bound).
func synthesize(specs []spec) ([][]segment, error) {
	segs := make([][]segment, len(specs))
	errs := make([]error, len(specs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for n := range specs {
		wg.Add(1)
		sem <- struct{}{}
		go func(n int) {
			defer func() { <-sem; wg.Done() }()
			segs[n], errs[n] = plateSegments(specs[n])
		}(n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return segs, nil
}

// plateSegments synthesizes one capture for the whole plate — one
// simulator, so every segment shares the static environment the plate
// calibrates on — and cuts it into one segment per group: the static
// prelude followed by that group's letters, at the first letter's
// original place.
func plateSegments(sp spec) ([]segment, error) {
	var text string
	for _, g := range sp.groups {
		text += g
	}
	capture, err := replay.SynthesizeUser(sp.seed, text, sp.prelude, sp.writer)
	if err != nil {
		return nil, err
	}
	reports, err := roundTrip(capture, nil)
	if err != nil {
		return nil, err
	}
	// The simulator leaves a reading-free gap before every letter, so
	// runs split at gaps are the prelude and then one run per letter.
	var runs [][]llrp.TagReport
	start := 0
	for i := 1; i <= len(reports); i++ {
		if i == len(reports) || reports[i].Timestamp-reports[i-1].Timestamp > time.Second {
			runs = append(runs, reports[start:i])
			start = i
		}
	}
	if len(runs) != len(text)+1 {
		return nil, fmt.Errorf("perfbench: capture of %q has %d letter runs", text, len(runs)-1)
	}
	var segs []segment
	letter := 1
	for _, g := range sp.groups {
		shift := runs[1][0].Timestamp - runs[letter][0].Timestamp
		seg := append([]llrp.TagReport(nil), runs[0]...)
		for _, run := range runs[letter : letter+len(g)] {
			for _, rep := range run {
				rep.Timestamp += shift
				seg = append(seg, rep)
			}
		}
		letter += len(g)
		sg := segment{text: g}
		if sg.reports, err = roundTrip(seg, &sg.cols); err != nil {
			return nil, err
		}
		last := sg.cols.Times[sg.cols.Len()-1]
		sg.period = (last/frameLen + 2) * frameLen
		segs = append(segs, sg)
	}
	return segs, nil
}

// roundTrip passes reports through reader frames and the decode
// adapter, returning them as a session would decode them (and filling
// cols when given). A second trip yields the same readings, so inputs
// the walk re-encodes decode to exactly the columns the closed-loop
// workloads push.
func roundTrip(reports []llrp.TagReport, cols *core.ReadingBatch) ([]llrp.TagReport, error) {
	var buf bytes.Buffer
	for i := 0; i < len(reports); i += batchReadings {
		if err := encodeFrame(&buf, reports[i:min(i+batchReadings, len(reports))]); err != nil {
			return nil, err
		}
	}
	if cols == nil {
		cols = &core.ReadingBatch{}
	}
	var dec frameDecoder
	out := make([]llrp.TagReport, 0, len(reports))
	for buf.Len() > 0 {
		reps, err := dec.decode(&buf, cols)
		if err != nil {
			return nil, err
		}
		out = append(out, reps...)
	}
	return out, nil
}

// encodeFrame writes reports as one RO_ACCESS_REPORT frame, as a
// reader emulator does.
func encodeFrame(w io.Writer, reports []llrp.TagReport) error {
	payload, err := llrp.EncodeReports(reports)
	if err != nil {
		return err
	}
	return llrp.WriteMessage(w, llrp.Message{Type: llrp.MsgROAccessReport, Payload: payload})
}

// frameDecoder is the benchmark's one wire frame → columnar batch
// adapter: frame read, report decode and column fill, timed as one step
// (llrp.decode_ns_per_reading) so the measurement survives a change
// that decodes straight into columns.
type frameDecoder struct {
	scratch []llrp.TagReport
}

// decode reads one report frame from r and appends its readings to
// dst. The returned reports alias the decoder's scratch.
func (d *frameDecoder) decode(r io.Reader, dst *core.ReadingBatch) ([]llrp.TagReport, error) {
	msg, err := llrp.ReadMessage(r)
	if err != nil {
		return nil, err
	}
	if msg.Type != llrp.MsgROAccessReport {
		return nil, fmt.Errorf("perfbench: unexpected %v frame", msg.Type)
	}
	reps, err := llrp.DecodeReportsInto(d.scratch, msg.Payload)
	if err != nil {
		return nil, err
	}
	d.scratch = reps
	live.AppendReports(dst, reps)
	return reps, nil
}

// corpusSeed is the simulator seed of one plate's capture. It does not
// depend on the run seed: the handwriting corpus is fixed, so
// letter_accuracy measures the program rather than which letters a seed
// drew (a seed's few hundred letters would swing it by tens of
// percent). Workloads use different corpora.
func corpusSeed(salt, plate int) int64 {
	return int64(salt)*104729 + int64(plate)*31 + 7
}
