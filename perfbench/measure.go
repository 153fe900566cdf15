package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// phase measures one timed stretch of a run from the outside: wall
// time, process CPU, bytes allocated, and the live heap after each GC.
type phase struct {
	start    time.Time
	cpu0     time.Duration
	alloc0   uint64
	live0    uint64
	live     []float64 // live heap after each GC cycle of the phase
	stop     chan struct{}
	sampling sync.WaitGroup
}

// phaseResult is what a phase measured.
type phaseResult struct {
	wall, cpu time.Duration
	allocated uint64
	// heapPeak is the live heap after GC at the phase's 90th
	// percentile of GC cycles, above the live heap at its start (the
	// inputs). The single highest of the few dozen to hundreds of cycles
	// a run sees follows where each GC happened to land, not the program.
	heapPeak uint64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// gcState reads the completed GC cycles and the heap the last one
// marked live.
func gcState() (cycles, live uint64) {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 || s[1].Value.Kind() != metrics.KindUint64 {
		return 0, 0
	}
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// startPhase collects garbage so the phase starts from a settled heap,
// then starts the clocks and a sampler of the live heap after each GC.
func startPhase() *phase {
	runtime.GC()
	p := &phase{stop: make(chan struct{})}
	seen, live0 := gcState()
	p.live0 = live0
	p.alloc0 = totalAlloc()
	p.sampling.Add(1)
	go func() {
		defer p.sampling.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				if cycles, live := gcState(); cycles != seen {
					seen = cycles
					p.live = append(p.live, float64(live))
				}
			}
		}
	}()
	p.cpu0 = processCPU()
	p.start = time.Now()
	return p
}

// end stops the clocks and the sampler.
func (p *phase) end() phaseResult {
	wall := time.Since(p.start)
	cpu := processCPU() - p.cpu0
	close(p.stop)
	p.sampling.Wait()
	// One more GC marks what the phase left live.
	runtime.GC()
	_, live := gcState()
	peak := uint64(quantileF(append(p.live, float64(live)), 0.9))
	return phaseResult{
		wall:      wall,
		cpu:       cpu,
		allocated: totalAlloc() - p.alloc0,
		heapPeak:  peak - min(peak, p.live0),
	}
}
