package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/engine"
)

// benchmarkJSON is the part of BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// lastLine runs the command and decodes its last output line.
func lastLine(t *testing.T, args ...string) (result, int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("%v: last line %q: %v (stderr %s)", args, lines[len(lines)-1], err, errOut.String())
	}
	return res, code
}

// TestPrintedMetricsMatchBenchmarkJSON runs every workload at minimal
// size, untraced and traced, and checks that the printed metric names
// and units are exactly BENCHMARK.json's.
func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	spans := filepath.Join(t.TempDir(), "spans.csv")
	for _, wl := range workloads {
		for trace, want := range [][]struct{ Name, Unit string }{b.EndToEnd, b.PerLayer} {
			res, code := lastLine(t, "--workload", wl.name, "--seed", "3", "--seconds", "0.1",
				"--trace", []string{"0", "1"}[trace], "--spans", spans)
			if code != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%d: exit %d, correct %v, attempted %d", wl.name, trace, code, res.Correct, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: printed %d metrics, BENCHMARK.json has %d", wl.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s printed as %+v (present %v), want unit %s", wl.name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// outcome is what must not depend on scheduling: each plate's letters
// and strokes, and the accuracy over them.
type outcome struct {
	letters  []string
	strokes  []int
	accuracy float64
}

func runOnce(t *testing.T, wl workloadSpec) outcome {
	t.Helper()
	scripts, err := buildScripts(wl, 5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runWorkload(wl, 5, scripts)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.errs) != 0 || !r.conserved {
		t.Fatalf("%s: errors %v, conserved %v", wl.name, r.errs, r.conserved)
	}
	var o outcome
	for _, p := range r.outs {
		o.letters = append(o.letters, string(p.got))
		o.strokes = append(o.strokes, p.strokes)
	}
	o.accuracy = accuracy(r.outs)
	return o
}

func sameOutcome(a, b outcome) bool {
	if a.accuracy != b.accuracy || len(a.letters) != len(b.letters) {
		return false
	}
	for i := range a.letters {
		if a.letters[i] != b.letters[i] || a.strokes[i] != b.strokes[i] {
			return false
		}
	}
	return true
}

// TestWorkloadsDeterministic checks that a minimal run of every
// workload recognizes the same letters and strokes twice, and with one
// processor as with all of them.
func TestWorkloadsDeterministic(t *testing.T) {
	for _, wl := range workloads {
		first := runOnce(t, wl)
		if again := runOnce(t, wl); !sameOutcome(first, again) {
			t.Errorf("%s: two runs differ: %+v vs %+v", wl.name, first, again)
		}
		prev := runtime.GOMAXPROCS(1)
		one := runOnce(t, wl)
		runtime.GOMAXPROCS(prev)
		if !sameOutcome(first, one) {
			t.Errorf("%s: GOMAXPROCS=1 differs from %d: %+v vs %+v", wl.name, prev, one, first)
		}
		if first.accuracy <= 0 {
			t.Errorf("%s: accuracy %v", wl.name, first.accuracy)
		}
	}
}

// TestFailedCountsPushesIntoClosedEngine injects a failure — a batch
// pushed after the engine closed — and checks that the accounting
// counts it as failed while still conserving readings.
func TestFailedCountsPushesIntoClosedEngine(t *testing.T) {
	sys := newSystem([]int{1}, plates{})
	if errs := sys.close(); len(errs) != 0 {
		t.Fatal(errs)
	}
	b := core.GetBatch()
	for i := 0; i < 10; i++ {
		b.Append(time.Duration(i)*time.Millisecond, 1, -50, 0)
	}
	if sys.engs[0].PushBatchWait(engine.StreamID("closed"), b) {
		t.Fatal("push into a closed engine was accepted")
	}
	r := &engineRun{offered: 10}
	sys.account(r, 10)
	if !r.conserved || r.failed != 10 {
		t.Fatalf("conserved %v, failed %d; want true, 10", r.conserved, r.failed)
	}
	if got := failedRatio(r); got != 1 {
		t.Fatalf("failed_ratio %v, want 1", got)
	}
}
