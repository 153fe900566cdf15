package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"rfipad/internal/obs"
)

// metricName is one metric the result line carries, with its unit.
type metricName struct{ name, unit string }

// endToEndNames are the metrics of an untraced run (BENCHMARK.json
// end_to_end, in order).
var endToEndNames = []metricName{
	{"readings_per_s", "readings/s"},
	{"cpu_ns_per_reading", "ns"},
	{"event_latency_p50_ms", "ms"},
	{"stroke_response_p50_ms", "ms"},
	{"letter_accuracy", "ratio"},
	{"handoff_p50_ms", "ms"},
	{"alloc_bytes_per_reading", "B"},
	{"heap_peak_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayerNames are the metrics of a traced run (BENCHMARK.json
// per_layer, in order). The two p95 latencies lead: they are end-to-end
// quantities, but on a shared two-processor host they move by a quarter
// from run to run with the host's load, more than any bound could
// absorb, so they are reported without one.
var perLayerNames = []metricName{
	{"event_latency_p95_ms", "ms"},
	{"handoff_p95_ms", "ms"},
	{"llrp.decode_ns_per_reading", "ns"},
	{"llrp.wire_bytes_per_reading", "B"},
	{"llrp.reconnects", "count"},
	{"live.calibrate_ms", "ms"},
	{"core.sanitize_ns_per_reading", "ns"},
	{"core.fold_ns_per_reading", "ns"},
	{"core.fold_allocs_per_reading", "allocs"},
	{"core.poll_us", "us"},
	{"core.poll_allocs", "allocs"},
	{"core.polls", "count"},
	{"core.strokes_per_poll", "ratio"},
	{"core.recognize_us_per_stroke", "us"},
	{"core.recognize_bytes_per_stroke", "B"},
	{"core.dup_readings", "count"},
	{"core.late_readings", "count"},
	{"core.reordered_readings", "count"},
	{"grammar.compose_us_per_letter", "us"},
	{"grammar.letters", "count"},
	{"engine.push_wait_ms_p50", "ms"},
	{"engine.push_wait_ms_p95", "ms"},
	{"engine.scale_vs_single", "ratio"},
	{"engine.queue_ms_p95", "ms"},
	{"engine.evict_ms_p50", "ms"},
	{"engine.adopt_ms_p50", "ms"},
	{"engine.overflow_batches", "count"},
	{"engine.dropped_readings", "count"},
	{"supervise.transfer_us", "us"},
	{"supervise.checkpoint_bytes", "B"},
	{"replay.pacing_lag_ms_p95", "ms"},
	{"failed_ratio", "ratio"},
	{"bench.layer_sum_ratio", "ratio"},
	{"bench.trace_overhead_ratio", "ratio"},
}

func unitOf(name string) string {
	for _, list := range [][]metricName{endToEndNames, perLayerNames} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}

// set is a metric map that fills in units from the tables.
type set map[string]metric

func (s set) put(name string, v float64) { s[name] = metric{Value: v, Unit: unitOf(name)} }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd derives the end-to-end metrics of an untraced run.
func endToEnd(r *engineRun, acc float64) map[string]metric {
	m := set{}
	n := float64(max(r.readings, 1))
	var lat, resp []time.Duration
	for _, o := range r.outs {
		lat = append(lat, o.latencies...)
		resp = append(resp, o.responses...)
	}
	handoffs := make([]time.Duration, len(r.moves))
	for i, mv := range r.moves {
		handoffs[i] = mv.total()
	}
	m.put("readings_per_s", n/r.ph.wall.Seconds())
	m.put("cpu_ns_per_reading", float64(r.ph.cpu)/n)
	m.put("event_latency_p50_ms", quantileMs(lat, 0.50))
	m.put("event_latency_p95_ms", quantileMs(lat, 0.95))
	m.put("stroke_response_p50_ms", quantileMs(resp, 0.50))
	m.put("letter_accuracy", acc)
	m.put("handoff_p50_ms", quantileMs(handoffs, 0.50))
	m.put("handoff_p95_ms", quantileMs(handoffs, 0.95))
	m.put("alloc_bytes_per_reading", float64(r.ph.allocated)/n)
	m.put("heap_peak_mb", float64(r.ph.heapPeak)/(1<<20))
	m.put("setup_s", median(r.setups).Seconds())
	return m
}

// perLayer derives the per-layer metrics from the traced walk w and the
// untraced run r of the same inputs.
func perLayer(wl workloadSpec, r *engineRun, w *walker, e2e map[string]metric) map[string]metric {
	m := set{}
	per := func(name string) float64 {
		lt := w.layer(name)
		return float64(lt.dur) / float64(max(lt.readings, 1))
	}
	m.put("llrp.decode_ns_per_reading", per(spanDecode))
	m.put("llrp.wire_bytes_per_reading", float64(w.frameBytes)/float64(max(w.readings, 1)))
	m.put("llrp.reconnects", float64(r.reconnects))
	m.put("live.calibrate_ms", ms(median(w.calibrations)))
	m.put("core.sanitize_ns_per_reading", per(spanSanitize))

	fold := w.layer(spanFold)
	foldNs := per(spanFold)
	foldAllocs := float64(fold.objects) / float64(max(fold.readings, 1))
	m.put("core.fold_ns_per_reading", foldNs)
	m.put("core.fold_allocs_per_reading", foldAllocs)

	// A poll call also folds its readings; its self time and allocations
	// net that out at the fold calls' per-reading rate.
	poll := w.layer(spanPoll)
	polls := float64(max(w.polls, 1))
	pollSelf := float64(poll.dur) - foldNs*float64(poll.readings)
	m.put("core.poll_us", pollSelf/polls/1e3)
	m.put("core.poll_allocs", (float64(w.pollObjects)-foldAllocs*float64(poll.readings))/polls)
	m.put("core.polls", float64(w.polls))
	windows := float64(w.windows.Value())
	m.put("core.strokes_per_poll", windows/polls)
	rec := w.layer(spanRecognize)
	m.put("core.recognize_us_per_stroke", float64(rec.dur)/max(windows, 1)/1e3)
	// Bytes a window costs: polls that ran RecognizeWindow less what
	// the same number of polls without one allocate.
	plain := float64(w.pollBytes-w.windowPollBytes) / float64(max(w.polls-w.windowPolls, 1))
	m.put("core.recognize_bytes_per_stroke", (float64(w.windowPollBytes)-plain*float64(w.windowPolls))/max(windows, 1))
	snap := w.reg.Snapshot()
	m.put("core.dup_readings", snap.Value("rfipad_readings_dropped_total", obs.L("reason", "duplicate")))
	m.put("core.late_readings", snap.Value("rfipad_readings_dropped_total", obs.L("reason", "late")))
	m.put("core.reordered_readings", snap.Value("rfipad_readings_reordered_total"))
	comp := w.layer(spanCompose)
	letters := float64(w.stage.grammar.Count())
	m.put("grammar.compose_us_per_letter", float64(comp.dur)/max(letters, 1)/1e3)
	m.put("grammar.letters", letters)

	m.put("engine.push_wait_ms_p50", quantileMs(r.pushWaits, 0.50))
	m.put("engine.push_wait_ms_p95", quantileMs(r.pushWaits, 0.95))
	// The single-goroutine rate covers the calls the untraced run makes
	// itself: everything but the generator, and decode unless the
	// workload goes over the wire.
	var busy time.Duration
	for name, lt := range w.layers {
		switch {
		case name == spanPlate, name == spanReplay:
		case name == spanDecode && wl.name != "wire":
		default:
			busy += lt.dur
		}
	}
	single := float64(w.readings) / busy.Seconds()
	m.put("engine.scale_vs_single", e2e["readings_per_s"].Value/single)
	m.put("engine.queue_ms_p95", r.queueP95)
	var evicts, adopts, transfers []time.Duration
	var ckpt int
	for _, mv := range r.moves {
		evicts = append(evicts, mv.evict)
		adopts = append(adopts, mv.adopt)
		transfers = append(transfers, mv.transfer)
		ckpt = mv.bytes
	}
	m.put("engine.evict_ms_p50", quantileMs(evicts, 0.50))
	m.put("engine.adopt_ms_p50", quantileMs(adopts, 0.50))
	m.put("engine.overflow_batches", float64(r.overflow))
	m.put("engine.dropped_readings", float64(r.dropped))
	m.put("supervise.transfer_us", quantileMs(transfers, 0.50)*1e3)
	m.put("supervise.checkpoint_bytes", float64(ckpt))
	m.put("replay.pacing_lag_ms_p95", quantileMs(r.lag, 0.95))
	m.put("failed_ratio", failedRatio(r))

	layerSum, total := w.measuring, time.Duration(0)
	for name, lt := range w.layers {
		if name != spanPlate {
			layerSum += lt.dur
		}
	}
	for _, sp := range w.spans {
		if sp.parent < 0 {
			total += time.Duration(sp.end - sp.start)
		}
	}
	m.put("bench.layer_sum_ratio", layerSum.Seconds()/total.Seconds())
	walkCPU := float64(w.cpu) - float64(w.layer(spanReplay).dur)
	if wl.name != "wire" {
		walkCPU -= float64(w.layer(spanDecode).dur)
	}
	m.put("bench.trace_overhead_ratio", walkCPU/float64(max(w.readings, 1))/e2e["cpu_ns_per_reading"].Value)
	return m
}

// failedRatio is the share of offered readings that never reached a
// healthy recognizer.
func failedRatio(r *engineRun) float64 { return float64(r.failed) / float64(max(r.offered, 1)) }

// provenance stamps a report with the host and the build, so numbers
// are only compared between runs on equal hosts.
type provenance struct {
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Timestamp  string `json:"timestamp"`
}

func newProvenance(seed int64) provenance {
	return provenance{
		Commit:     buildCommit(),
		Seed:       seed,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
}

// buildCommit is the VCS revision stamped into the binary, or
// "unknown" when it was built outside a checkout.
func buildCommit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "-dirty"
			}
		}
	}
	if rev == "" {
		return "unknown"
	}
	return rev[:min(12, len(rev))] + dirty
}

// cpuModel reads the processor name Linux reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
