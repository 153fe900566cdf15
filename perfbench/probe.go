package main

import (
	"time"

	"rfipad/internal/core"
	"rfipad/internal/engine"
)

// probeEvery is how often the prober acts during a measured phase.
const probeEvery = 5 * time.Millisecond

// prober measures, throughout the write and wire workloads' measured
// phase, what those workloads do not do themselves: moving a stream
// between engines (a calibrated probe stream alternates between two
// standby engines of one worker each, so every move competes with the
// workload for the processors) and, on wire, the wait a producer sees
// pushing into the engine the sessions feed (a one-reading batch for a
// stream of its own).
type prober struct {
	standby [2]*engine.Engine
	id      engine.StreamID
	at      int
	// push, when set, is the engine the push-wait probe pushes into.
	push *engine.Engine

	moves  []moveTimes
	waits  []time.Duration
	pushed int64 // readings the push probe pushed
}

// addProber starts the standby engines and calibrates the probe stream
// on the first from sc's prelude. It returns the readings pushed.
func (s *system) addProber(sc *script, pl plates) (*prober, int64, error) {
	p := &prober{standby: [2]*engine.Engine{s.add(1, pl), s.add(1, pl)}}
	ps := *sc
	ps.id = "handoff-probe"
	p.id = ps.id
	f := &feeder{pr: &plateRun{s: &ps}}
	pushed, err := f.prelude(p.standby[0])
	return p, pushed, err
}

// run acts every probeEvery until stop closes.
func (p *prober) run(stop <-chan struct{}) error {
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return nil
		case <-tick.C:
		}
		if p.push != nil {
			b := core.GetBatch()
			b.Append(0, 0, -60, 0)
			t0 := time.Now()
			p.push.PushBatchWait("push-probe", b)
			p.waits = append(p.waits, time.Since(t0))
			p.pushed++
		}
		m, err := migrate(p.standby[p.at], p.standby[1-p.at], p.id)
		if err != nil {
			return err
		}
		p.moves = append(p.moves, m)
		p.at = 1 - p.at
	}
}

// during runs the prober while phase runs, and returns phase's error or
// else the prober's.
func (p *prober) during(phase func() error) error {
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- p.run(stop) }()
	err := phase()
	close(stop)
	if perr := <-done; err == nil {
		err = perr
	}
	return err
}
