// Command perfbench is the repository benchmark. It synthesizes seeded
// handwriting inputs, drives the system through its layers' public
// entry points on one of three workloads (write, handoff, wire), checks
// the recognized letters against the written text, and prints every
// metric by name with its unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload write --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with --trace 1 the run replays the same inputs a second
// time from one goroutine with a span around every layer call and
// reports the per-layer metrics. See README.md for what each metric
// means.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"rfipad"
	"rfipad/internal/engine"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workloadSpec is one workload's input shape.
type workloadSpec struct {
	name string
	// why is recorded in BENCHMARK.json; kept here so the report says it
	// too.
	why string
	// salt separates the workloads' capture seeds.
	salt int
	// prelude is the static stretch before each segment's word; the
	// first three seconds of the first one calibrate.
	prelude time.Duration
	// chunks lists, per plate, the alphabet chunks its segments write.
	chunks [][]int
	// variants is how many distinct writings of its chunks a plate
	// cycles through: more distinct letters make a seed's accuracy less
	// a property of a handful of letters.
	variants int
	// rate is the nominal rate (readings/s) that sizes a closed-loop
	// run; zero for the open loop, which the replay speed sizes.
	rate float64
}

var workloads = []workloadSpec{
	{
		name:     "write",
		why:      "closed-loop letters on one engine: segmentation poll, recognition and grammar dominate; wire and restore paths bypassed",
		salt:     1,
		prelude:  3 * time.Second,
		chunks:   [][]int{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}},
		variants: 4,
		rate:     3.0e6,
	},
	{
		name:     "handoff",
		why:      "plates move between two engines at a fixed stream period: restore, SkipTo, cold caches and the dedup path of resumed overlap",
		salt:     2,
		prelude:  3 * time.Second,
		chunks:   [][]int{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}},
		variants: 4,
		rate:     3.0e6,
	},
	{
		name:     "wire",
		why:      "open-loop paced LLRP emulators over loopback into sessions: the only path through wire decode; recognition a small share",
		salt:     3,
		prelude:  12 * time.Second,
		chunks:   [][]int{{0, 2, 4, 6}, {1, 3, 5, 7}},
		variants: 2,
	},
}

// traceShrink divides a traced run's size: the traced run replays its
// inputs twice (untraced, then walked) and holds every span in memory.
const traceShrink = 4

// buildScripts synthesizes a workload's inputs, arranges them for the
// seed and sizes them for seconds of measurement.
func buildScripts(wl workloadSpec, seed int64, seconds float64) ([]*script, error) {
	writers := rfipad.Volunteers()
	specs := make([]spec, len(wl.chunks))
	for p, chunks := range wl.chunks {
		specs[p] = spec{seed: corpusSeed(wl.salt, p), prelude: wl.prelude, writer: writers[p]}
		for v := 0; v < wl.variants; v++ {
			for _, c := range chunks {
				specs[p].groups = append(specs[p].groups, alphabet[c])
			}
		}
	}
	plateSegs, err := synthesize(specs)
	if err != nil {
		return nil, err
	}
	// perLap is the readings of one segment on every plate; period the
	// mean stream length of a segment.
	var perLap, period float64
	for _, segs := range plateSegs {
		for _, sg := range segs {
			perLap += float64(sg.cols.Len()) / float64(len(segs))
			period += sg.period.Seconds() / float64(len(segs)*len(plateSegs))
		}
	}
	var laps float64
	if wl.rate > 0 {
		laps = seconds * wl.rate / perLap
	} else {
		laps = seconds * wireSpeed / period
	}
	// Whole cycles only: every seed then writes the same letters, in its
	// own order.
	cycle := len(plateSegs[0])
	count := max(1, int(math.Round(laps/float64(cycle)))) * cycle
	// The seed decides the order each plate writes its segments in, how
	// each lap sits on the frame grid, and where the handoff cuts fall.
	rng := rand.New(rand.NewSource(seed))
	scripts := make([]*script, len(wl.chunks))
	for p, segs := range plateSegs {
		order := make([]segment, len(segs))
		for i, j := range rng.Perm(len(segs)) {
			order[i] = segs[j]
		}
		scripts[p] = newScript(engine.StreamID(fmt.Sprintf("plate-%d", p)), order, count, wl.prelude, rng)
		scripts[p].phase = time.Duration(rng.Int63n(int64(handoffPeriod)))
	}
	return scripts, nil
}

// runWorkload runs a workload's untraced measurement.
func runWorkload(wl workloadSpec, seed int64, scripts []*script) (*engineRun, error) {
	switch wl.name {
	case "write":
		return runWrite(scripts)
	case "handoff":
		return runHandoff(scripts)
	default:
		return runWire(seed, scripts, runtime.GOMAXPROCS(0))
	}
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything a run prints before its result: provenance,
// host, counts and checks, so numbers are only compared on equal hosts.
type report struct {
	Workload   string            `json:"workload"`
	Why        string            `json:"why"`
	Provenance provenance        `json:"provenance"`
	Trace      bool              `json:"trace"`
	Plates     []plateReport     `json:"plates"`
	Laps       int               `json:"laps"`
	Readings   int64             `json:"readings_measured"`
	Offered    int64             `json:"readings_offered"`
	Resent     int64             `json:"readings_resent"`
	Events     int               `json:"event_samples"`
	Unmatched  int               `json:"events_without_trigger"`
	Strokes    int               `json:"strokes"`
	Letters    int               `json:"letters"`
	Handoffs   int               `json:"handoff_samples"`
	Checks     map[string]bool   `json:"checks"`
	Errors     []string          `json:"errors,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
}

// plateReport shows the start of what one plate wrote and what was
// recognized, and the edit distance over the whole run.
type plateReport struct {
	Want     string `json:"want_head"`
	Got      string `json:"got_head"`
	Strokes  int    `json:"strokes"`
	Distance int    `json:"edit_distance"`
}

// head is the first n runes of s.
func head(s []rune, n int) string { return string(s[:min(n, len(s))]) }

// accuracyFloor is the letter accuracy below which a run's output is
// wrong rather than degraded.
const accuracyFloor = 0.25

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "write, handoff, wire, or all (each in turn)")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measurement length the inputs are sized for")
	traced := fs.Int("trace", 0, "1 reports per-layer metrics from a traced replay")
	spans := fs.String("spans", "", "where a traced run writes its spans (default .bench_build/spans-<workload>.csv)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var chosen []workloadSpec
	for _, wl := range workloads {
		if *name == wl.name || *name == "all" {
			chosen = append(chosen, wl)
		}
	}
	if len(chosen) == 0 || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: usage: --workload write|handoff|wire|all --seed N --seconds S --trace 0|1")
		return 2
	}
	code := 0
	for _, wl := range chosen {
		path := *spans
		if path == "" {
			path = fmt.Sprintf(".bench_build/spans-%s.csv", wl.name)
		}
		code = max(code, runOne(wl, *seed, *seconds, *traced == 1, path, stdout, stderr))
	}
	return code
}

// runOne measures one workload and prints its report, then its result
// line. A stream error or a traced run that disagrees with the untraced
// one exits 1 after printing.
func runOne(wl workloadSpec, seed int64, seconds float64, traced bool, spans string, stdout, stderr io.Writer) int {
	res, rep, err := measure(wl, seed, seconds, traced, spans)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Checks["no_stream_errors"] || !rep.Checks["traced_matches_untraced"] {
		return 1
	}
	return 0
}

// measure runs one workload and assembles its report and result.
func measure(wl workloadSpec, seed int64, seconds float64, traced bool, spansPath string) (result, report, error) {
	size := seconds
	if traced {
		size /= traceShrink
	}
	scripts, err := buildScripts(wl, seed, size)
	if err != nil {
		return result{}, report{}, err
	}
	r, err := runWorkload(wl, seed, scripts)
	if err != nil {
		return result{}, report{}, err
	}
	if r.readings == 0 {
		return result{}, report{}, errNoReadings
	}
	rep := report{
		Workload:   wl.name,
		Why:        wl.why,
		Provenance: newProvenance(seed),
		Trace:      traced,
		Laps:       scripts[0].count,
		Readings:   r.readings,
		Offered:    r.offered,
		Resent:     r.resent,
		Handoffs:   len(r.moves),
		Checks:     map[string]bool{},
	}
	for _, e := range r.errs {
		rep.Errors = append(rep.Errors, e.Error())
	}
	for _, o := range r.outs {
		rep.Plates = append(rep.Plates, plateReport{
			Want:     head([]rune(o.want), 24),
			Got:      head(o.got, 24),
			Strokes:  o.strokes,
			Distance: levenshtein([]rune(o.want), o.got),
		})
		rep.Events += len(o.latencies)
		rep.Unmatched += o.unmatched
		rep.Strokes += o.strokes
		rep.Letters += len(o.got)
	}
	acc := accuracy(r.outs)
	rep.Checks["no_stream_errors"] = len(r.errs) == 0
	rep.Checks["readings_conserved"] = r.conserved
	rep.Checks["no_reconnects"] = r.reconnects == 0
	rep.Checks["accuracy_above_floor"] = acc >= accuracyFloor
	rep.Checks["traced_matches_untraced"] = true
	rep.Metrics = endToEnd(r, acc)

	res := result{Attempted: r.offered, Failed: r.failed}
	if traced {
		w, wouts, err := walk(wl.name, scripts)
		if err != nil {
			return result{}, report{}, err
		}
		rep.Checks["traced_matches_untraced"] = sameOutput(r.outs, wouts)
		rep.Checks["poll_split_exact"] = w.splitErrors == 0
		for k, v := range perLayer(wl, r, w, rep.Metrics) {
			rep.Metrics[k] = v
		}
		if err := w.writeSpans(spansPath); err != nil {
			return result{}, report{}, err
		}
	}
	res.Correct = true
	for _, ok := range rep.Checks {
		res.Correct = res.Correct && ok
	}
	res.Metrics = map[string]metric{}
	want := endToEndNames
	if traced {
		want = perLayerNames
	}
	for _, m := range want {
		res.Metrics[m.name] = rep.Metrics[m.name]
	}
	return res, rep, nil
}

// sameOutput reports whether two runs recognized the same letters and
// stroke count on every plate.
func sameOutput(a, b []plateOut) bool {
	if len(a) != len(b) {
		return false
	}
	for n := range a {
		if string(a[n].got) != string(b[n].got) || a[n].strokes != b[n].strokes {
			return false
		}
	}
	return true
}

// median returns the median of ds (0 when empty).
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

var errNoReadings = errors.New("perfbench: measured phase ingested nothing")
