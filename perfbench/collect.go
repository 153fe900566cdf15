package main

import (
	"sort"
	"sync"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/engine"
)

// plateOut is what one plate produced: its letters and strokes, and the
// per-event timings the end-to-end metrics are made of.
type plateOut struct {
	want      string
	got       []rune
	strokes   int
	responses []time.Duration // Event.At − Span.End per stroke
	latencies []time.Duration // due time of the triggering reading → OnEvent
	unmatched int             // events no reading triggered (stream-end flush)
}

// pushRec is one closed-loop push: the stream-time range of the batch
// and when PushBatchWait was called.
type pushRec struct {
	first, last time.Duration
	at          time.Time
}

// plateRun is one plate's state during an engine run. OnEvent runs on
// shard goroutines while the feeder appends pushes, so both go through
// mu.
type plateRun struct {
	s  *script
	mu sync.Mutex
	plateOut
	pushes []pushRec
	// due, when set, gives the scheduled send time of the reading at
	// stream time at (open loop); otherwise the push record is used.
	due func(at time.Duration) (time.Time, bool)
}

func (pr *plateRun) push(first, last time.Duration, at time.Time) {
	pr.mu.Lock()
	pr.pushes = append(pr.pushes, pushRec{first, last, at})
	pr.mu.Unlock()
}

// event records one recognition event delivered at now.
func (pr *plateRun) event(ev core.Event, now time.Time) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.record(ev)
	var due time.Time
	ok := false
	if pr.due != nil {
		due, ok = pr.due(ev.At)
	} else {
		// The event fired while its shard handled the newest batch
		// holding At; older pushes of the same time were resent
		// overlap handled before an eviction.
		for j := len(pr.pushes) - 1; j >= 0; j-- {
			if p := pr.pushes[j]; p.first <= ev.At && ev.At <= p.last {
				due, ok = p.at, true
				break
			}
		}
	}
	if !ok {
		pr.unmatched++
		return
	}
	pr.latencies = append(pr.latencies, now.Sub(due))
}

// record folds an event into the plate's letters and strokes.
func (o *plateOut) record(ev core.Event) {
	switch ev.Kind {
	case core.StrokeDetected:
		o.strokes++
		o.responses = append(o.responses, ev.At-ev.Span.End)
	case core.LetterDeduced:
		r := ev.Letter
		if r == 0 {
			r = '?'
		}
		o.got = append(o.got, r)
	}
}

// plates indexes a run's plates by stream for the OnEvent hook; the map
// is built before any engine starts and only read afterwards.
type plates map[engine.StreamID]*plateRun

func newPlates(scripts []*script) (plates, []*plateRun) {
	m := plates{}
	list := make([]*plateRun, len(scripts))
	for n, s := range scripts {
		list[n] = &plateRun{s: s, plateOut: plateOut{want: s.text()}}
		m[s.id] = list[n]
	}
	return m, list
}

func (m plates) onEvent(id engine.StreamID, ev core.Event) {
	if pr := m[id]; pr != nil {
		pr.event(ev, time.Now())
	}
}

// accuracy is 1 − (summed edit distance ÷ summed written length) over
// every plate.
func accuracy(outs []plateOut) float64 {
	dist, n := 0, 0
	for _, o := range outs {
		dist += levenshtein([]rune(o.want), o.got)
		n += len([]rune(o.want))
	}
	if n == 0 {
		return 1
	}
	return max(0, 1-float64(dist)/float64(n))
}

func levenshtein(a, b []rune) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// quantileMs is the interpolated q-quantile of samples, in milliseconds
// (0 when empty).
func quantileMs(samples []time.Duration, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	xs := make([]float64, len(samples))
	for i, d := range samples {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	return quantileF(xs, q)
}

// quantileF is the interpolated q-quantile of xs, which must not be
// empty; xs is sorted in place.
func quantileF(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	x := q * float64(len(xs)-1)
	lo := int(x)
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (x-float64(lo))*(xs[hi]-xs[lo])
}
