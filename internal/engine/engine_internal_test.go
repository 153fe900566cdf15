package engine

import (
	"testing"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/obs"
)

// TestShardIndexStableAndBounded pins the stream→shard mapping:
// deterministic, in range, and spread across more than one shard for a
// realistic ID population.
func TestShardIndexStableAndBounded(t *testing.T) {
	ids := []StreamID{"plate-0", "plate-1", "plate-2", "plate-3", "reader:192.168.0.7"}
	seen := map[int]bool{}
	for _, id := range ids {
		i := shardIndex(id, 4)
		if i < 0 || i >= 4 {
			t.Fatalf("shardIndex(%q, 4) = %d, out of range", id, i)
		}
		if j := shardIndex(id, 4); j != i {
			t.Fatalf("shardIndex(%q) unstable: %d then %d", id, i, j)
		}
		seen[i] = true
	}
	if len(seen) < 2 {
		t.Errorf("all %d ids hashed to one shard — no spread", len(ids))
	}
}

// oneReading returns a fresh pooled batch holding one reading: a pushed
// batch belongs to the engine, so every push needs its own.
func oneReading() *core.ReadingBatch {
	b := core.GetBatch()
	b.Append(time.Millisecond, 1, -60, 0)
	return b
}

// TestPushOverflowDropsAndCounts fills a 1-deep mailbox with no worker
// draining it and checks the overflow path: the batch is shed, not
// blocked on, and the counters record exactly what was lost.
func TestPushOverflowDropsAndCounts(t *testing.T) {
	reg := obs.NewRegistry()
	// Hand-built engine with one shard and NO worker goroutine, so the
	// mailbox state is fully deterministic.
	e := &Engine{cfg: Config{Workers: 1, QueueDepth: 1}.withDefaults(), tel: newTelemetry(reg)}
	e.shards = []*shard{{eng: e, mail: make(chan item, 1), stop: make(chan struct{}), streams: map[StreamID]*streamState{}}}

	if !e.PushBatch("s", oneReading()) {
		t.Fatal("first push should fit the mailbox")
	}
	done := make(chan bool, 1)
	go func() { done <- e.PushBatch("s", oneReading()) }()
	select {
	case ok := <-done:
		if ok {
			t.Error("second push reported accepted with a full mailbox")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("PushBatch blocked on a full mailbox — backpressure must shed, not stall")
	}
	if got := e.tel.overflow.Value(); got != 1 {
		t.Errorf("engine_overflow_total = %d, want 1", got)
	}
	if got := e.tel.droppedR.Value(); got != 1 {
		t.Errorf("engine_dropped_readings_total = %d, want 1", got)
	}

	// After Close begins, both push flavours load-shed immediately and
	// count what they shed.
	e.closed.Store(true)
	if e.PushBatch("s", oneReading()) {
		t.Error("push into a closed engine reported accepted")
	}
	if e.PushBatchWait("s", oneReading()) {
		t.Error("blocking push into a closed engine reported accepted")
	}
	if got := e.tel.overflow.Value(); got != 3 {
		t.Errorf("engine_overflow_total after closed pushes = %d, want 3", got)
	}
	if got := e.tel.droppedR.Value(); got != 3 {
		t.Errorf("engine_dropped_readings_total after closed pushes = %d, want 3", got)
	}
}

// TestPushEmptyBatchIsNoop guards the fast path: nil and zero-length
// batches are accepted without touching the mailbox or counters.
func TestPushEmptyBatchIsNoop(t *testing.T) {
	e := New(Config{Workers: 1, Obs: obs.NewRegistry()})
	defer e.Close()
	for name, push := range map[string]func(StreamID, *core.ReadingBatch) bool{
		"PushBatch": e.PushBatch, "PushBatchWait": e.PushBatchWait,
	} {
		if !push("s", nil) {
			t.Errorf("%s rejected a nil batch", name)
		}
		if !push("s", core.GetBatch()) {
			t.Errorf("%s rejected an empty batch", name)
		}
	}
	if got := e.tel.batches.Value(); got != 0 {
		t.Errorf("engine_batches_total = %d, want 0", got)
	}
	if got := e.tel.overflow.Value(); got != 0 {
		t.Errorf("engine_overflow_total = %d, want 0", got)
	}
}
