package core

import "testing"

// pollSink keeps the benchmarked poll's result live.
var pollSink []Span

// BenchmarkSegmentPollActive measures one streaming segmentation poll
// over a ~150-frame history holding strokes: the incremental window
// stds for the newest frame plus the full seeding, bridging-quantile
// and trimming pass an active poll pays. The CI bench smoke gates on
// it reporting 0 allocs/op.
func BenchmarkSegmentPollActive(b *testing.B) {
	rms := activePollTrace(b)
	seg := NewSegmenter()
	var sc segScratch
	warmActivePoll(b, seg, &sc, rms)
	last := len(rms) - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pollSink = seg.segmentRMSFrom(rms, 0, &sc, last)
	}
}
