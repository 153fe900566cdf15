package core

import (
	"testing"
	"time"
)

// activePollTrace returns the per-frame RMS trace of a ~15 s capture
// with five strokes in it — the shape of the retained history a
// streaming recognizer re-segments on every poll while a letter is
// being written (~150 frames, a good share of them seeded).
func activePollTrace(t testing.TB) []float64 {
	t.Helper()
	const n = 25
	centres := evenCentres(n)
	sigmas := constSigmas(n, 0.04)
	cal, err := Calibrate(synthStatic(n, 60, centres, sigmas, 41), n)
	if err != nil {
		t.Fatal(err)
	}
	ms := time.Millisecond
	strokes := []Span{
		{Start: 1500 * ms, End: 2700 * ms},
		{Start: 3700 * ms, End: 4500 * ms},
		{Start: 6000 * ms, End: 7200 * ms},
		{Start: 9000 * ms, End: 10000 * ms},
		{Start: 12000 * ms, End: 13500 * ms},
	}
	total := 15200 * ms
	readings := synthLetterStream(n, strokes, total, centres, sigmas, 42)
	return NewSegmenter().FrameRMSTrace(readings, cal, 0, total)
}

// warmActivePoll runs one full rebuild of the scratch over rms and
// checks the trace really is active: spans come out, so the seeding
// loop fired and the bridging quantiles ran.
func warmActivePoll(t testing.TB, seg *Segmenter, sc *segScratch, rms []float64) {
	t.Helper()
	if spans := seg.segmentRMSFrom(rms, 0, sc, -1); len(spans) == 0 {
		t.Fatal("active trace produced no spans")
	}
	if len(sc.seeded) == 0 {
		t.Fatal("active trace seeded no frames")
	}
}

// TestSegmentPollActiveAllocs pins the active poll — window stds,
// threshold, seeding, both bridging quantiles, trimming and merging —
// at zero allocations once the scratch is warm.
func TestSegmentPollActiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	rms := activePollTrace(t)
	seg := NewSegmenter()
	var sc segScratch
	warmActivePoll(t, seg, &sc, rms)
	last := len(rms) - 1
	allocs := testing.AllocsPerRun(100, func() {
		seg.segmentRMSFrom(rms, 0, &sc, last)
	})
	if allocs != 0 {
		t.Errorf("active poll allocates %v per call, want 0", allocs)
	}
}
