package cluster_test

import (
	"sync"
	"testing"
	"time"

	"rfipad/internal/cluster"
	"rfipad/internal/core"
	"rfipad/internal/engine"
	"rfipad/internal/obs"
)

// fastConfig is the base sim-test tuning: quick heartbeats and tight
// failure detection so membership churn resolves in tens of
// milliseconds, single-shard node engines for determinism.
func fastConfig(reg *obs.Registry) cluster.Config {
	return cluster.Config{
		HeartbeatInterval: 25 * time.Millisecond,
		FailAfter:         150 * time.Millisecond,
		HandoffTimeout:    3 * time.Second,
		EngineWorkers:     1,
		Obs:               reg,
	}
}

// TestClusterRoutesAndRecognizes is the single-node sanity baseline: a
// one-member cluster routes a full capture to its engine and the word
// comes out, with membership and placement visible on cluster_*.
func TestClusterRoutesAndRecognizes(t *testing.T) {
	reg := obs.NewRegistry()
	tape := newLetterTape()
	cfg := fastConfig(reg)
	cfg.OnEvent = tape.onEvent
	c := cluster.New(cfg)
	defer c.Close()
	if _, err := c.AddNode("node-0"); err != nil {
		t.Fatal(err)
	}

	batches, _ := synthBatches(t, 70, "IT", 0)
	pushAll(c, "plate-0", batches)
	c.FlushStream("plate-0")
	waitFor(t, 10*time.Second, `letters "IT"`, func() bool {
		return tape.get("plate-0") == "IT"
	})

	owner, ok := c.Owner("plate-0")
	if !ok || owner != "node-0" {
		t.Errorf("Owner = %q, %v; want node-0", owner, ok)
	}
	snap := reg.Snapshot()
	if v := snap.Value("cluster_nodes"); v != 1 {
		t.Errorf("cluster_nodes = %v, want 1", v)
	}
	if v := snap.Value("cluster_streams_placed"); v != 1 {
		t.Errorf("cluster_streams_placed = %v, want 1", v)
	}
	if v := snap.Value("cluster_heartbeats_total"); v == 0 {
		t.Error("cluster_heartbeats_total stayed zero")
	}

	results := c.Close()
	if res := results["node-0"]; len(res) != 1 || res[0].Letters != "IT" {
		t.Errorf("node-0 results = %+v, want one stream with IT", res)
	}
}

// TestClusterSpreadsStreams places many streams across members and
// demands every member own at least one — the coordinator must
// actually distribute, not pile everything on one engine.
func TestClusterSpreadsStreams(t *testing.T) {
	reg := obs.NewRegistry()
	c := cluster.New(fastConfig(reg))
	defer c.Close()
	nodes := []cluster.NodeID{"node-0", "node-1", "node-2"}
	for _, id := range nodes {
		if _, err := c.AddNode(id); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[cluster.NodeID]int{}
	for i := 0; i < 32; i++ {
		id := engine.StreamID("plate-" + string(rune('a'+i%26)) + string(rune('0'+i/26)))
		owner, ok := c.Owner(id)
		if !ok {
			t.Fatalf("no owner for %s", id)
		}
		counts[owner]++
	}
	for _, id := range nodes {
		if counts[id] == 0 {
			t.Errorf("node %s owns no streams: %v", id, counts)
		}
	}
}

// TestClusterLeaveHandsOffGracefully drains a member mid-word: its
// calibrated stream must move to the survivor via a live-state
// checkpoint handoff (not the durable store — none is configured) and
// finish the word there with no recalibration.
func TestClusterLeaveHandsOffGracefully(t *testing.T) {
	reg := obs.NewRegistry()
	tape := newLetterTape()
	cfg := fastConfig(reg)
	cfg.OnEvent = tape.onEvent
	c := cluster.New(cfg)
	defer c.Close()
	if _, err := c.AddNode("node-0"); err != nil {
		t.Fatal(err)
	}

	const id = engine.StreamID("plate-0")
	phase1, max1 := synthBatches(t, 56, "IT", 0)
	pushAll(c, id, phase1)
	c.FlushStream(id)
	waitFor(t, 10*time.Second, `phase-1 letters "IT"`, func() bool {
		return tape.get(id) == "IT"
	})

	// Bring in the successor, then drain the original owner. The
	// stream must land on node-1 regardless of ring preference —
	// node-1 is the only member left.
	if _, err := c.AddNode("node-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Leave("node-0"); err != nil {
		t.Fatal(err)
	}
	owner, ok := c.Owner(id)
	if !ok || owner != "node-1" {
		t.Fatalf("after leave, owner = %q, %v; want node-1", owner, ok)
	}

	// Prelude-free continuation: only the migrated calibration can
	// recognize it.
	phase2, _ := synthLetters(t, 56, "LC", max1+3*time.Second)
	pushAll(c, id, phase2)
	c.FlushStream(id)
	waitFor(t, 10*time.Second, `phase-2 letters "ITLC"`, func() bool {
		return tape.get(id) == "ITLC"
	})

	snap := reg.Snapshot()
	if v := snap.Value("cluster_handoffs_total", obs.L("outcome", "restored")); v != 1 {
		t.Errorf("restored handoffs = %v, want 1", v)
	}
	if v := snap.Value("cluster_handoffs_total", obs.L("outcome", "fallback_live")); v != 0 {
		t.Errorf("fallback handoffs = %v, want 0", v)
	}
	if v := snap.Value("engine_streams_adopted_total"); v != 1 {
		t.Errorf("engine_streams_adopted_total = %v, want 1", v)
	}
	if v := snap.Value("engine_streams_evicted_total"); v != 1 {
		t.Errorf("engine_streams_evicted_total = %v, want 1", v)
	}
	if n := reg.Snapshot().HistCount("cluster_handoff_seconds", obs.L("trigger", "graceful")); n != 1 {
		t.Errorf("cluster_handoff_seconds{trigger=graceful} count = %d, want 1", n)
	}
}

// TestClusterJoinRebalanceIsSticky pins the sticky-placement rule: an
// uncalibrated stream (prelude still in progress) whose ring owner
// changes on a join stays where it is — migrating nothing would only
// destroy the partial prelude.
func TestClusterJoinRebalanceIsSticky(t *testing.T) {
	reg := obs.NewRegistry()
	c := cluster.New(fastConfig(reg))
	defer c.Close()
	if _, err := c.AddNode("node-0"); err != nil {
		t.Fatal(err)
	}

	// One tiny batch: enough to create placements, nowhere near enough
	// to calibrate.
	batches, _ := synthBatches(t, 72, "I", 0)
	ids := []engine.StreamID{"plate-0", "plate-1", "plate-2", "plate-3"}
	for _, id := range ids {
		c.Push(id, toBatch(batches[0]))
	}
	for _, id := range ids {
		if owner, _ := c.Owner(id); owner != "node-0" {
			t.Fatalf("stream %s not on the only node", id)
		}
	}

	if _, err := c.AddNode("node-1"); err != nil {
		t.Fatal(err)
	}
	// Any rebalance migrations must resolve as sticky no-ops: every
	// stream still on node-0, nothing handed off.
	waitFor(t, 5*time.Second, "rebalance to settle", func() bool {
		for _, id := range ids {
			if owner, ok := c.Owner(id); !ok || owner != "node-0" {
				return false
			}
		}
		return true
	})
	time.Sleep(50 * time.Millisecond) // let any in-flight migration finalize
	snap := reg.Snapshot()
	if v := snap.Value("cluster_handoffs_total", obs.L("outcome", "restored")) +
		snap.Value("cluster_handoffs_total", obs.L("outcome", "fallback_live")); v != 0 {
		t.Errorf("handoffs = %v, want 0 (sticky)", v)
	}
	for _, id := range ids {
		if owner, _ := c.Owner(id); owner != "node-0" {
			t.Errorf("stream %s moved to %s; sticky placement should hold", id, owner)
		}
	}
}

// TestClusterCloseIdempotent demands the second Close return the first
// call's results — callers on different shutdown paths (signal
// handler, defer) must not race each other into a double drain.
func TestClusterCloseIdempotent(t *testing.T) {
	reg := obs.NewRegistry()
	tape := newLetterTape()
	cfg := fastConfig(reg)
	cfg.OnEvent = tape.onEvent
	c := cluster.New(cfg)
	if _, err := c.AddNode("node-0"); err != nil {
		t.Fatal(err)
	}
	batches, _ := synthBatches(t, 73, "IT", 0)
	pushAll(c, "plate-0", batches)
	c.FlushStream("plate-0")
	waitFor(t, 10*time.Second, "letters", func() bool { return tape.get("plate-0") == "IT" })

	first := c.Close()
	second := c.Close()
	if len(first) != 1 || len(second) != 1 {
		t.Fatalf("result maps: first %d, second %d nodes", len(first), len(second))
	}
	f, s := first["node-0"], second["node-0"]
	if len(f) != 1 || len(s) != 1 || f[0].Letters != s[0].Letters || f[0].Letters != "IT" {
		t.Errorf("second Close diverged: first %+v, second %+v", f, s)
	}
	// Push after close sheds, never panics, and is counted.
	snap := reg.Snapshot()
	b0, r0 := snap.Value("cluster_dropped_batches_total"), snap.Value("cluster_dropped_readings_total")
	if c.Push("plate-0", toBatch(batches[0])) {
		t.Error("Push accepted a batch after Close")
	}
	if b, r := droppedSince(reg, b0, r0); b != 1 || r != float64(len(batches[0])) {
		t.Errorf("after close: dropped %v batches / %v readings, want 1 / %d", b, r, len(batches[0]))
	}
}

// droppedSince reports the router's dropped batch and reading counters
// relative to an earlier snapshot.
func droppedSince(reg *obs.Registry, batches0, readings0 float64) (batches, readings float64) {
	snap := reg.Snapshot()
	return snap.Value("cluster_dropped_batches_total") - batches0,
		snap.Value("cluster_dropped_readings_total") - readings0
}

// TestClusterPushShedsAndCounts pins the router's ownerless shed path:
// a push with no live owner is refused and counted batch for batch,
// reading for reading, while nil and empty batches are no-ops.
func TestClusterPushShedsAndCounts(t *testing.T) {
	reg := obs.NewRegistry()
	c := cluster.New(fastConfig(reg))
	defer c.Close()
	batches, _ := synthBatches(t, 74, "I", 0)
	n := float64(len(batches[0]))

	// No members: the ring has no owner for the stream.
	if c.Push("plate-0", toBatch(batches[0])) {
		t.Error("Push accepted a batch with an empty ring")
	}
	if b, r := droppedSince(reg, 0, 0); b != 1 || r != n {
		t.Errorf("ownerless push: dropped %v batches / %v readings, want 1 / %v", b, r, n)
	}
	if !c.Push("plate-0", nil) || !c.Push("plate-0", core.GetBatch()) {
		t.Error("empty batch reported shed")
	}
	if b, _ := droppedSince(reg, 0, 0); b != 1 {
		t.Errorf("empty pushes counted as dropped: %v batches, want 1", b)
	}
}

// TestClusterOrphanedMigrationCountsPending buffers pushes behind a
// graceful handoff whose only possible target is gone: the sole member
// leaves, so the migration finds an empty ring and orphans the stream.
// Pushes past PendingBatches shed on arrival; the buffered ones shed at
// finalize. Every one of them must land on the dropped counters.
func TestClusterOrphanedMigrationCountsPending(t *testing.T) {
	reg := obs.NewRegistry()
	parked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	cfg := fastConfig(reg)
	cfg.PendingBatches = 2
	cfg.OnEvent = func(cluster.NodeID, engine.StreamID, core.Event) {
		// Park the node's only shard on the first event, so the handoff's
		// evict waits in its mailbox and the migration stays in flight.
		once.Do(func() {
			close(parked)
			<-release
		})
	}
	c := cluster.New(cfg)
	defer c.Close()
	if _, err := c.AddNode("node-0"); err != nil {
		t.Fatal(err)
	}
	const id = engine.StreamID("plate-0")
	batches, _ := synthBatches(t, 75, "IT", 0)
	pushAll(c, id, batches)
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("stream emitted no event")
	}

	left := make(chan error, 1)
	go func() {
		_, err := c.Leave("node-0")
		left <- err
	}()
	waitFor(t, 5*time.Second, "node-0 out of the ring", func() bool { return len(c.Members()) == 0 })

	snap := reg.Snapshot()
	b0, r0 := snap.Value("cluster_dropped_batches_total"), snap.Value("cluster_dropped_readings_total")
	extra, _ := synthLetters(t, 75, "LC", 0)
	if len(extra) < 3 {
		t.Fatalf("capture has %d batches, want at least 3", len(extra))
	}
	var buffered float64
	for k, rep := range extra[:3] {
		accepted := c.Push(id, toBatch(rep))
		if k < cfg.PendingBatches {
			buffered += float64(len(rep))
			if !accepted {
				t.Fatalf("push %d shed with room in the pending buffer", k)
			}
		} else if accepted {
			t.Fatalf("push %d accepted past PendingBatches=%d", k, cfg.PendingBatches)
		}
	}
	over := float64(len(extra[2]))
	if b, r := droppedSince(reg, b0, r0); b != 1 || r != over {
		t.Errorf("pending overflow: dropped %v batches / %v readings, want 1 / %v", b, r, over)
	}

	close(release)
	select {
	case err := <-left:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Leave did not return")
	}
	if v := reg.Snapshot().Value("cluster_streams_orphaned_total"); v != 1 {
		t.Errorf("cluster_streams_orphaned_total = %v, want 1", v)
	}
	if b, r := droppedSince(reg, b0, r0); b != 3 || r != buffered+over {
		t.Errorf("after orphaning: dropped %v batches / %v readings, want 3 / %v", b, r, buffered+over)
	}
}
