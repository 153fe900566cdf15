package core

import (
	"math"
	"slices"
	"sort"
	"time"

	"rfipad/internal/dsp"
)

// Segmenter separates strokes from a continuous phase stream by
// detecting the "adjustment intervals" between them (§III-C1): the
// stream is cut into 100 ms frames, each frame's RMS phase disturbance
// is computed (Eq. 11), frames are grouped into 0.5 s windows, and a
// window is part of a stroke when the standard deviation of its frame
// RMS values exceeds a threshold (Eq. 12).
type Segmenter struct {
	// FrameLen is the frame length (default 100 ms, §III-C1).
	FrameLen time.Duration
	// WindowFrames is the number of frames per window (default 5,
	// i.e. 0.5 s).
	WindowFrames int
	// Threshold is `thre` of Eq. 12, in radians. The paper determines
	// it empirically for its deployment; a zero value selects the
	// adaptive default, which scales with the capture's own quiet
	// noise level (adaptiveK × the median window std, floored).
	Threshold float64
	// MergeGap joins detected spans separated by less than this gap.
	// A stroke's phase rotation stalls briefly where the reflected
	// path length is stationary (the symmetric trends of Fig. 8),
	// which can split one stroke in two; an adjustment interval is
	// much longer than this. Default 300 ms.
	MergeGap time.Duration
	// MinSpan drops detected spans shorter than this: the briefest
	// real stroke lasts several frames (the paper treats a 0.5 s
	// window as the detection unit), while interference pops last one
	// or two. Default 400 ms.
	MinSpan time.Duration
}

// Adaptive-threshold tuning: the quietest quarter of a capture's
// windows tracks the noise floor even when strokes cover most of the
// session; stroke windows stand an order of magnitude above it.
const (
	adaptiveK        = 3.0
	adaptiveQuantile = 0.25
	thresholdFloor   = 0.02
	// adaptivePeakFrac scales the threshold with the capture's own
	// dynamic range: transition ripple a few × above the noise floor
	// must not seed spans when real strokes stand 20–50× above it.
	adaptivePeakFrac = 0.25
)

// NewSegmenter returns a Segmenter with the paper's parameters and the
// adaptive threshold.
func NewSegmenter() *Segmenter {
	return &Segmenter{
		FrameLen:     100 * time.Millisecond,
		WindowFrames: 5,
		MergeGap:     300 * time.Millisecond,
		MinSpan:      400 * time.Millisecond,
	}
}

// Span is one detected stroke interval.
type Span struct {
	Start, End time.Duration
}

// Duration returns the span length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// frameRMS computes Eq. 11 per frame: the sum over tags of the RMS of
// the mean-subtracted phase samples in the frame.
func (g *Segmenter) frameRMS(readings []Reading, cal *Calibration, start, end time.Duration) []float64 {
	nFrames := int((end - start) / g.FrameLen)
	if nFrames <= 0 {
		return nil
	}
	n := cal.NumTags()
	// Collect θ' samples per (frame, tag).
	perFrame := make([][][]float64, nFrames)
	for i := range perFrame {
		perFrame[i] = make([][]float64, n)
	}
	for _, r := range readings {
		if r.Time < start || r.Time >= end || r.TagIndex < 0 || r.TagIndex >= n {
			continue
		}
		if cal.IsDead(r.TagIndex) {
			// Sporadic reads from an uncalibrated tag would feed raw
			// (unsuppressed) phases into the frame statistic.
			continue
		}
		f := int((r.Time - start) / g.FrameLen)
		if f >= nFrames {
			continue
		}
		// p_ij: the diversity-suppressed phase, as a signed excursion
		// around the tag's static centre.
		p := dsp.WrapSigned(r.Phase - cal.MeanPhase[r.TagIndex])
		perFrame[f][r.TagIndex] = append(perFrame[f][r.TagIndex], p)
	}
	// Eq. 11 runs over the diversity-suppressed streams: each tag's
	// contribution is normalized by its relative deviation bias, so a
	// tag sitting in heavy multipath cannot drown the frame statistic
	// (with UniformCalibration all factors are 1 — the unsuppressed
	// arm of Fig. 16).
	// The factor only attenuates (≤1): a tag noisier than typical is
	// damped toward the typical level; quiet tags pass unchanged.
	typBias := dsp.Median(cal.Bias)
	factor := make([]float64, n)
	for i := range factor {
		f := 1.0
		if cal.Bias[i] > 0 && typBias > 0 && cal.Bias[i] > typBias {
			f = typBias / cal.Bias[i]
			if f < 1.0/32 {
				f = 1.0 / 32
			}
		}
		factor[i] = f
	}
	out := make([]float64, nFrames)
	for f := range perFrame {
		var sum float64
		for i := 0; i < n; i++ {
			if len(perFrame[f][i]) == 0 {
				continue
			}
			sum += factor[i] * dsp.RMS(perFrame[f][i])
		}
		out[f] = sum
	}
	return out
}

// Segment detects the stroke spans in the readings between start and
// end. The returned spans have frame granularity.
func (g *Segmenter) Segment(readings []Reading, cal *Calibration, start, end time.Duration) []Span {
	return g.segmentRMS(g.frameRMS(readings, cal, start, end), start, nil)
}

// segScratch holds every buffer one segmentRMS evaluation needs, so a
// streaming caller polling once per frame allocates nothing in steady
// state. The zero value is ready; buffers grow to the high-water mark
// and stay there.
//
// Across calls the scratch also carries the incremental window-std
// state (stds, sortedStds, incr*): a streaming caller that knows which
// frames changed since its last poll pays only for the handful of
// sliding windows those frames touch, instead of recomputing — and
// re-sorting — every window std per poll.
type segScratch struct {
	stds   []float64
	seeded []float64
	sel    []float64 // quantile workspace: NaN-free copy, partially ordered by selectNth
	active []bool
	spans  []Span

	// sortedStds mirrors stds as a NaN-free sorted multiset, maintained
	// incrementally so the adaptive threshold's quantile and peak are
	// O(1) lookups instead of a copy + sort per poll.
	sortedStds []float64
	incrValid  bool
	incrStart  time.Duration // rms[0]'s stream time when stds was built
}

// sortedInsert adds v to the sorted multiset (NaNs are excluded, as the
// quantile path excludes them).
func (sc *segScratch) sortedInsert(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(sc.sortedStds, v)
	sc.sortedStds = append(sc.sortedStds, 0)
	copy(sc.sortedStds[i+1:], sc.sortedStds[i:])
	sc.sortedStds[i] = v
}

// sortedRemove drops one occurrence of v from the sorted multiset.
func (sc *segScratch) sortedRemove(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(sc.sortedStds, v)
	if i < len(sc.sortedStds) && sc.sortedStds[i] == v {
		sc.sortedStds = sc.sortedStds[:i+copy(sc.sortedStds[i:], sc.sortedStds[i+1:])]
	}
}

// quantile computes the q-th quantile of x through the scratch's
// selection buffer, returning exactly what dsp.NewCDF(x).Quantile(q)
// does without the allocation or the sort. NaNs are dropped as CDF
// does. QuantileSorted reads only the order statistics sorted[i] and
// sorted[i+1]; quickselect places the first at i with everything after
// it no smaller, so the second is the minimum of that upper part — the
// same two values, interpolated by the same expression, in O(n).
func (sc *segScratch) quantile(x []float64, q float64) float64 {
	sc.sel = sc.sel[:0]
	for _, v := range x {
		if !math.IsNaN(v) {
			sc.sel = append(sc.sel, v)
		}
	}
	a := sc.sel
	n := len(a)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		lo, _ := dsp.MinMax(a)
		return lo
	}
	// The index arithmetic and interpolation of dsp.QuantileSorted.
	pos := q * float64(n-1)
	i := int(pos)
	if q >= 1 || i+1 >= n {
		_, hi := dsp.MinMax(a)
		return hi
	}
	frac := pos - float64(i)
	selectNth(a, i)
	next, _ := dsp.MinMax(a[i+1:])
	return a[i]*(1-frac) + next*frac
}

// selectNth partially orders the NaN-free a so that a[k] holds the
// value a full sort would put there, every element before k is <= a[k]
// and every element after it is >= a[k] (quickselect with a
// median-of-three pivot and a three-way partition, so runs of equal
// values — quiet frames all at the noise floor — cost one pass).
func selectNth(a []float64, k int) {
	lo, hi := 0, len(a)-1
	for lo < hi {
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi]
		if x > y {
			x, y = y, x
		}
		if y > z {
			y = z
			if x > y {
				y = x
			}
		}
		p := y // median of the three
		// [lo, lt) < p, [lt, i) == p, (gt, hi] > p.
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch v := a[i]; {
			case v < p:
				a[lt], a[i] = v, a[lt]
				lt++
				i++
			case v > p:
				a[i], a[gt] = a[gt], v
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return
		}
	}
}

// segmentRMS runs the span-detection back half of Segment over an
// already-computed per-frame RMS trace starting at start. With a nil
// scratch it allocates fresh buffers (the batch path); the streaming
// recognizer passes its own scratch and must consume the returned spans
// before the next call, which reuses them.
func (g *Segmenter) segmentRMS(rms []float64, start time.Duration, sc *segScratch) []Span {
	return g.segmentRMSFrom(rms, start, sc, -1)
}

// segmentRMSFrom is segmentRMS with a change watermark: when
// changedFrom >= 0, frames [changedFrom, len(rms)) are the only ones
// whose rms values may differ from the previous call on the same
// scratch (start advances — history trims — are detected and handled
// by shifting). Only the sliding windows those frames touch are
// recomputed, and the threshold's quantile/peak read the incrementally
// maintained sorted multiset, so a quiet steady-state poll costs a few
// window stds instead of a full re-sort. changedFrom < 0 (or any
// inconsistency with the scratch's remembered geometry) falls back to
// a full rebuild; the detected spans are bit-identical either way.
func (g *Segmenter) segmentRMSFrom(rms []float64, start time.Duration, sc *segScratch, changedFrom int) []Span {
	if len(rms) == 0 {
		return nil
	}
	if sc == nil {
		sc = &segScratch{}
	}
	w := g.WindowFrames
	if w <= 0 {
		w = 5
	}

	// Sliding window std(RMS): frame f is "active" if any window
	// containing it exceeds the threshold. Sliding (rather than the
	// strictly tiled windows of the paper) removes the 0.5 s
	// quantization of stroke boundaries while keeping Eq. 12 intact.
	g.updateStds(rms, start, sc, changedFrom, w)
	stds := sc.stds

	var thre float64
	if g.Threshold > 0 {
		thre = g.Threshold
	} else {
		// The adaptive rule of effectiveThresholdScratch over the sorted
		// multiset: same multiset → same order statistics → same value.
		thre = adaptiveK * dsp.QuantileSorted(sc.sortedStds, adaptiveQuantile)
		if n := len(sc.sortedStds); n > 0 {
			if peak := sc.sortedStds[n-1]; peak*adaptivePeakFrac > thre {
				thre = peak * adaptivePeakFrac
			}
		}
		if !(thre > thresholdFloor) { // also catches NaN
			thre = thresholdFloor
		}
	}

	// Quiet-poll early exit: when no window std clears the threshold,
	// the seeding loop below cannot activate a frame, so the call would
	// fall through to the len(seeded) == 0 return anyway. The sorted
	// multiset's tail is the peak, making the common all-quiet poll a
	// comparison instead of a sweep.
	if n := len(sc.sortedStds); n == 0 || sc.sortedStds[n-1] <= thre {
		return nil
	}

	if cap(sc.active) < len(rms) {
		sc.active = make([]bool, len(rms))
	}
	active := sc.active[:len(rms)]
	for i := range active {
		active[i] = false
	}
	seeded := sc.seeded[:0]
	for f := 0; f+w <= len(rms); f++ {
		if stds[f] > thre {
			for k := f; k < f+w; k++ {
				if !active[k] {
					active[k] = true
					seeded = append(seeded, rms[k])
				}
			}
		}
	}
	sc.seeded = seeded

	if len(seeded) == 0 {
		return nil
	}

	// Bridging: Eq. 12's std(RMS) rule fires on transitions but can
	// dip mid-stroke when the disturbance plateaus. A frame whose RMS
	// sits above the midpoint between the quiet floor and the typical
	// active level is part of a stroke too.
	quiet := sc.quantile(rms, adaptiveQuantile)
	bridge := (quiet + sc.quantile(seeded, 0.5)) / 2
	for f, v := range rms {
		if v > bridge {
			active[f] = true
		}
	}

	// Trim the edges of each active run back to the bridge level: this
	// sharpens boundaries that the window-level rule blurs and discards
	// runs that were only transition ripple.
	spans := sc.spans[:0]
	f := 0
	for f < len(active) {
		if !active[f] {
			f++
			continue
		}
		lo := f
		for f < len(active) && active[f] {
			f++
		}
		hi := f // exclusive
		for lo < hi && rms[lo] <= bridge {
			lo++
		}
		for hi > lo && rms[hi-1] <= bridge {
			hi--
		}
		if hi <= lo {
			continue
		}
		spans = append(spans, Span{
			Start: start + time.Duration(lo)*g.FrameLen,
			End:   start + time.Duration(hi)*g.FrameLen,
		})
	}
	sc.spans = spans
	merged := g.merge(spans)
	if g.MinSpan <= 0 {
		return merged
	}
	kept := merged[:0]
	for _, sp := range merged {
		if sp.Duration() >= g.MinSpan {
			kept = append(kept, sp)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	return kept
}

// updateStds brings the scratch's sliding-window stds (and their sorted
// multiset) up to date with rms. Each recomputed window std is a fresh
// dsp.Std over the current rms values — never a running update — so an
// incrementally maintained entry is bit-identical to a full rebuild's.
//
// The incremental path survives the two geometry changes a streaming
// caller produces: a history trim (start advanced by whole frames;
// dropped frames' windows shift down — their values are unchanged
// because the surviving rms values are unchanged) and appended frames.
// A horizon regression (rms shorter than the scratch remembers, e.g.
// the poll after a flush pushed the horizon far ahead) forces a full
// rebuild, as does any call without a watermark.
func (g *Segmenter) updateStds(rms []float64, start time.Duration, sc *segScratch, changedFrom, w int) {
	nw := len(rms) - w + 1
	if nw < 0 {
		nw = 0
	}
	rebuild := changedFrom < 0 || !sc.incrValid || g.FrameLen <= 0
	if !rebuild && start != sc.incrStart {
		if start < sc.incrStart || (start-sc.incrStart)%g.FrameLen != 0 {
			rebuild = true
		} else if drop := int((start - sc.incrStart) / g.FrameLen); drop >= len(sc.stds) {
			rebuild = true
		} else {
			for _, v := range sc.stds[:drop] {
				sc.sortedRemove(v)
			}
			sc.stds = sc.stds[:copy(sc.stds, sc.stds[drop:])]
		}
	}
	if !rebuild && nw < len(sc.stds) {
		rebuild = true
	}
	if rebuild {
		sc.stds = sc.stds[:0]
		sc.sortedStds = sc.sortedStds[:0]
		for f := 0; f < nw; f++ {
			v := dsp.Std(rms[f : f+w])
			sc.stds = append(sc.stds, v)
			if !math.IsNaN(v) {
				sc.sortedStds = append(sc.sortedStds, v)
			}
		}
		slices.Sort(sc.sortedStds)
	} else {
		// Windows touching a changed frame: [changedFrom-w+1, nw), plus
		// any windows beyond the previous high-water mark.
		lo := changedFrom - w + 1
		if lo < 0 {
			lo = 0
		}
		if lo > len(sc.stds) {
			lo = len(sc.stds)
		}
		for f := lo; f < nw; f++ {
			v := dsp.Std(rms[f : f+w])
			if f < len(sc.stds) {
				sc.sortedRemove(sc.stds[f])
				sc.stds[f] = v
			} else {
				sc.stds = append(sc.stds, v)
			}
			sc.sortedInsert(v)
		}
	}
	sc.incrValid = true
	sc.incrStart = start
}

// merge joins spans closer than MergeGap.
func (g *Segmenter) merge(spans []Span) []Span {
	if len(spans) < 2 || g.MergeGap <= 0 {
		return spans
	}
	out := spans[:1]
	for _, sp := range spans[1:] {
		last := &out[len(out)-1]
		if sp.Start-last.End <= g.MergeGap {
			last.End = sp.End
		} else {
			out = append(out, sp)
		}
	}
	return out
}

// effectiveThreshold resolves Eq. 12's `thre`: the configured constant
// when set, otherwise the adaptive default derived from this capture's
// window stds.
func (g *Segmenter) effectiveThreshold(stds []float64) float64 {
	return g.effectiveThresholdScratch(stds, &segScratch{})
}

// effectiveThresholdScratch is effectiveThreshold using the caller's
// quantile workspace.
func (g *Segmenter) effectiveThresholdScratch(stds []float64, sc *segScratch) float64 {
	if g.Threshold > 0 {
		return g.Threshold
	}
	thre := adaptiveK * sc.quantile(stds, adaptiveQuantile)
	if _, peak := dsp.MinMax(stds); peak*adaptivePeakFrac > thre {
		thre = peak * adaptivePeakFrac
	}
	if !(thre > thresholdFloor) { // also catches NaN
		thre = thresholdFloor
	}
	return thre
}

// EffectiveThreshold reports the Eq. 12 threshold that Segment would
// use on this capture — diagnostic for tests and figure benches.
func (g *Segmenter) EffectiveThreshold(readings []Reading, cal *Calibration, start, end time.Duration) float64 {
	return g.effectiveThreshold(g.WindowStdTrace(readings, cal, start, end))
}

// FrameRMSTrace exposes the per-frame RMS values (Fig. 9's middle
// panel) for diagnostics and the figure benchmarks.
func (g *Segmenter) FrameRMSTrace(readings []Reading, cal *Calibration, start, end time.Duration) []float64 {
	return g.frameRMS(readings, cal, start, end)
}

// WindowStdTrace exposes std(RMS) per sliding window position (Fig. 9's
// bottom panel).
func (g *Segmenter) WindowStdTrace(readings []Reading, cal *Calibration, start, end time.Duration) []float64 {
	rms := g.frameRMS(readings, cal, start, end)
	w := g.WindowFrames
	if w <= 0 || len(rms) < w {
		return nil
	}
	out := make([]float64, len(rms)-w+1)
	for f := range out {
		out[f] = dsp.Std(rms[f : f+w])
	}
	return out
}
