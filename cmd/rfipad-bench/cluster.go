package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"rfipad/internal/cluster"
	"rfipad/internal/core"
	"rfipad/internal/engine"
	"rfipad/internal/experiments/scenario"
	"rfipad/internal/live"
	"rfipad/internal/llrp"
	"rfipad/internal/obs"
	"rfipad/internal/replay"
	"rfipad/internal/supervise"
)

// clusterScalePoint is one node count in the scaling sweep: per-node
// stream load is fixed, so total work grows linearly with members and
// aggregate rate should track min(nodes, cores) if the coordinator
// adds no serial bottleneck.
type clusterScalePoint struct {
	Nodes          int     `json:"nodes"`
	Streams        int     `json:"streams"`
	ReadingsTotal  int     `json:"readings_total"`
	WallSec        float64 `json:"wall_seconds"`
	Rate           float64 `json:"readings_per_sec"`
	RatePerStream  float64 `json:"readings_per_sec_per_stream"`
	ScaleVsOneNode float64 `json:"scale_vs_one_node"`
}

// clusterFailover is the node-kill section: detection plus handoff
// timing and the outcome counters proving the migration restored
// calibration instead of recalibrating.
type clusterFailover struct {
	Nodes             int     `json:"nodes"`
	Streams           int     `json:"streams"`
	StreamsLost       int     `json:"streams_on_killed_node"`
	FailAfterMs       float64 `json:"fail_after_ms"`
	KillToRecoveredMs float64 `json:"kill_to_recovered_ms"`
	HandoffsRestored  float64 `json:"handoffs_restored"`
	HandoffsFallback  float64 `json:"handoffs_fallback_live"`
	HandoffRetries    float64 `json:"handoff_retries"`
	HandoffP50Ms      float64 `json:"handoff_p50_ms"`
	HandoffP95Ms      float64 `json:"handoff_p95_ms"`
	StreamsAdopted    float64 `json:"streams_adopted"`
	WordsCompleted    int     `json:"words_completed"`
}

// clusterReport is the machine-readable BENCH_cluster.json payload.
type clusterReport struct {
	Provenance     scenario.Provenance `json:"provenance"`
	Word           string              `json:"word"`
	Cores          int                 `json:"cores"`
	StreamsPerNode int                 `json:"streams_per_node"`
	Scaling        []clusterScalePoint `json:"scaling"`
	Failover       clusterFailover     `json:"failover"`
}

// benchBatches synthesizes one capture and chunks it into push-sized
// reading batches, decoded here so the timed pushes do no wire decode.
// stripPrelude drops the static prelude (for phase-2 continuations that
// must ride a migrated calibration); shift offsets every timestamp to
// keep one stream clock monotonic across phases. maxTS is the largest
// post-shift timestamp.
func benchBatches(seed int64, word string, shift time.Duration, stripPrelude bool) (batches []*core.ReadingBatch, maxTS time.Duration, err error) {
	const prelude = 3 * time.Second
	reports, err := replay.Synthesize(seed, word, prelude)
	if err != nil {
		return nil, 0, err
	}
	const chunk = 400
	var batch []llrp.TagReport
	flush := func() {
		b := new(core.ReadingBatch)
		live.AppendReports(b, batch)
		batches = append(batches, b)
		batch = batch[:0]
	}
	for _, rep := range reports {
		if stripPrelude && rep.Timestamp <= prelude {
			continue
		}
		rep.Timestamp += shift
		if rep.Timestamp > maxTS {
			maxTS = rep.Timestamp
		}
		batch = append(batch, rep)
		if len(batch) == chunk {
			flush()
		}
	}
	if len(batch) > 0 {
		flush()
	}
	return batches, maxTS, nil
}

// pushBlocking retries a shed push until the owner's mailbox accepts
// the batch, so the bench measures sustained throughput instead of
// drop rate. A pushed batch belongs to the cluster even when shed, so
// every attempt pushes a fresh pooled copy of the pre-decoded batch.
func pushBlocking(c *cluster.Cluster, id engine.StreamID, src *core.ReadingBatch) {
	for {
		b := core.GetBatch()
		b.AppendColumns(src.Times, src.Phases, src.RSS, src.TagIndices)
		if c.Push(id, b) {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// benchTape collects recognized letters per stream across all nodes.
type benchTape struct {
	mu      sync.Mutex
	letters map[engine.StreamID]string
}

func newBenchTape() *benchTape { return &benchTape{letters: map[engine.StreamID]string{}} }

func (bt *benchTape) onEvent(_ cluster.NodeID, id engine.StreamID, ev core.Event) {
	if ev.Kind == core.LetterDeduced {
		bt.mu.Lock()
		bt.letters[id] += string(ev.Letter)
		bt.mu.Unlock()
	}
}

func (bt *benchTape) get(id engine.StreamID) string {
	bt.mu.Lock()
	defer bt.mu.Unlock()
	return bt.letters[id]
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("cluster bench: timed out after %v waiting for %s", timeout, what)
}

// runClusterScale measures one node count: a fresh cluster with
// streamsPerNode streams per member, every capture pushed flat out
// through the coordinator, wall time from first push through full
// drain (Close).
func runClusterScale(seed int64, word string, nodes, streamsPerNode int) (clusterScalePoint, error) {
	reg := obs.NewRegistry()
	c := cluster.New(cluster.Config{EngineWorkers: 1, Obs: reg})
	for i := 0; i < nodes; i++ {
		if _, err := c.AddNode(cluster.NodeID(fmt.Sprintf("node-%02d", i))); err != nil {
			c.Close()
			return clusterScalePoint{}, err
		}
	}
	streams := nodes * streamsPerNode
	captures := make(map[engine.StreamID][]*core.ReadingBatch, streams)
	total := 0
	for i := 0; i < streams; i++ {
		batches, _, err := benchBatches(seed+int64(i), word, 0, false)
		if err != nil {
			c.Close()
			return clusterScalePoint{}, err
		}
		id := engine.StreamID(fmt.Sprintf("stream-%02d", i))
		captures[id] = batches
		for _, b := range batches {
			total += b.Len()
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for id, batches := range captures {
		wg.Add(1)
		go func(id engine.StreamID, batches []*core.ReadingBatch) {
			defer wg.Done()
			for _, b := range batches {
				pushBlocking(c, id, b)
			}
			c.FlushStream(id)
		}(id, batches)
	}
	wg.Wait()
	c.Close() // drains every node engine: all readings processed
	wall := time.Since(start)

	return clusterScalePoint{
		Nodes:         nodes,
		Streams:       streams,
		ReadingsTotal: total,
		WallSec:       wall.Seconds(),
		Rate:          float64(total) / wall.Seconds(),
		RatePerStream: float64(total) / wall.Seconds() / float64(streams),
	}, nil
}

// runClusterFailover kills a node mid-word and measures recovery: the
// failure detector's silence deadline, the checkpoint handoffs, and
// whether every stream finishes its word on the survivors with the
// migrated calibration (phase-2 captures carry no prelude, so a
// recalibrating stream cannot finish).
func runClusterFailover(nodes, streams int) (clusterFailover, error) {
	dir, err := os.MkdirTemp("", "rfipad-bench-cluster-")
	if err != nil {
		return clusterFailover{}, err
	}
	defer os.RemoveAll(dir)
	store, err := supervise.NewStore(dir)
	if err != nil {
		return clusterFailover{}, err
	}

	const failAfter = 200 * time.Millisecond
	reg := obs.NewRegistry()
	tape := newBenchTape()
	c := cluster.New(cluster.Config{
		HeartbeatInterval: 50 * time.Millisecond,
		FailAfter:         failAfter,
		EngineWorkers:     1,
		Checkpoints:       store,
		CheckpointEvery:   100 * time.Millisecond,
		OnEvent:           tape.onEvent,
		Obs:               reg,
	})
	defer c.Close()
	for i := 0; i < nodes; i++ {
		if _, err := c.AddNode(cluster.NodeID(fmt.Sprintf("node-%02d", i))); err != nil {
			return clusterFailover{}, err
		}
	}

	// Phase 1: every stream writes "IT" and calibrates. Seeds 80+ are
	// verified to recognize both phases cleanly.
	ids := make([]engine.StreamID, streams)
	phase2Shift := make(map[engine.StreamID]time.Duration, streams)
	for i := range ids {
		ids[i] = engine.StreamID(fmt.Sprintf("plate-%d", i))
		batches, maxTS, err := benchBatches(80+int64(i), "IT", 0, false)
		if err != nil {
			return clusterFailover{}, err
		}
		for _, b := range batches {
			pushBlocking(c, ids[i], b)
		}
		c.FlushStream(ids[i])
		phase2Shift[ids[i]] = maxTS + 3*time.Second
	}
	if err := waitUntil(60*time.Second, "phase-1 recognition", func() bool {
		for _, id := range ids {
			if tape.get(id) != "IT" {
				return false
			}
		}
		return true
	}); err != nil {
		return clusterFailover{}, err
	}

	// Kill the owner of plate-0 without warning.
	victim, ok := c.Owner(ids[0])
	if !ok {
		return clusterFailover{}, fmt.Errorf("cluster bench: no owner for %s", ids[0])
	}
	lost := 0
	for _, id := range ids {
		if owner, _ := c.Owner(id); owner == victim {
			lost++
		}
	}
	killed := time.Now()
	if !c.Kill(victim) {
		return clusterFailover{}, fmt.Errorf("cluster bench: Kill(%s) found no node", victim)
	}
	if err := waitUntil(30*time.Second, "failure detection and handoffs", func() bool {
		snap := reg.Snapshot()
		return snap.Value("cluster_node_failures_total") >= 1 &&
			snap.Value("cluster_handoffs_total", obs.L("outcome", "restored")) >= float64(lost)
	}); err != nil {
		return clusterFailover{}, err
	}
	recovery := time.Since(killed)

	// Phase 2: prelude-free continuation on the survivors.
	for i, id := range ids {
		batches, _, err := benchBatches(80+int64(i), "LC", phase2Shift[id], true)
		if err != nil {
			return clusterFailover{}, err
		}
		for _, b := range batches {
			pushBlocking(c, id, b)
		}
		c.FlushStream(id)
	}
	completed := 0
	if err := waitUntil(60*time.Second, "phase-2 recognition", func() bool {
		completed = 0
		for _, id := range ids {
			if tape.get(id) == "ITLC" {
				completed++
			}
		}
		return completed == len(ids)
	}); err != nil {
		return clusterFailover{}, err
	}

	snap := reg.Snapshot()
	// The handoff histogram is labeled by trigger; a node kill records
	// under trigger=failure. Asking for the unlabeled series would match
	// nothing and its empty quantiles (NaN) are unrepresentable in JSON.
	handoff, _ := snap.Get("cluster_handoff_seconds", obs.L("trigger", "failure"))
	p50 := handoff.Quantile(0.50) * 1e3
	p95 := handoff.Quantile(0.95) * 1e3
	if math.IsNaN(p50) {
		p50, p95 = 0, 0
	}
	return clusterFailover{
		Nodes:             nodes,
		Streams:           streams,
		StreamsLost:       lost,
		FailAfterMs:       float64(failAfter) / float64(time.Millisecond),
		KillToRecoveredMs: float64(recovery) / float64(time.Millisecond),
		HandoffsRestored:  snap.Value("cluster_handoffs_total", obs.L("outcome", "restored")),
		HandoffsFallback:  snap.Value("cluster_handoffs_total", obs.L("outcome", "fallback_live")),
		HandoffRetries:    snap.Value("cluster_handoff_retries_total"),
		HandoffP50Ms:      p50,
		HandoffP95Ms:      p95,
		StreamsAdopted:    snap.Value("engine_streams_adopted_total"),
		WordsCompleted:    completed,
	}, nil
}

// runClusterBench sweeps node counts with fixed per-node stream load,
// then runs the node-kill failover scenario, and writes the JSON
// report to path.
func runClusterBench(seed int64, word string, maxNodes, streamsPerNode int, path string) error {
	if maxNodes <= 0 {
		maxNodes = 3
	}
	if streamsPerNode <= 0 {
		streamsPerNode = 4
	}
	rep := clusterReport{Provenance: newProvenance(seed), Word: word,
		Cores: runtime.NumCPU(), StreamsPerNode: streamsPerNode}

	for n := 1; n <= maxNodes; n++ {
		pt, err := runClusterScale(seed, word, n, streamsPerNode)
		if err != nil {
			return fmt.Errorf("cluster bench scale n=%d: %w", n, err)
		}
		if len(rep.Scaling) == 0 {
			pt.ScaleVsOneNode = 1
		} else {
			pt.ScaleVsOneNode = pt.Rate / rep.Scaling[0].Rate
		}
		rep.Scaling = append(rep.Scaling, pt)
		fmt.Printf("cluster scale: %d node(s) × %d stream(s): %.0f readings/s (%.2fx one node)\n",
			pt.Nodes, streamsPerNode, pt.Rate, pt.ScaleVsOneNode)
	}

	failNodes := maxNodes
	if failNodes < 3 {
		failNodes = 3
	}
	fo, err := runClusterFailover(failNodes, 4)
	if err != nil {
		return fmt.Errorf("cluster bench failover: %w", err)
	}
	rep.Failover = fo

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("=== cluster\nfailover: killed 1 of %d nodes (%d stream(s) lost), recovered in %.0f ms, handoff p95 %.1f ms, %d/%d words completed; wrote %s\n",
		fo.Nodes, fo.StreamsLost, fo.KillToRecoveredMs, fo.HandoffP95Ms,
		fo.WordsCompleted, fo.Streams, path)
	return nil
}
