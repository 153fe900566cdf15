package live

import (
	"fmt"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/llrp"
	"rfipad/internal/supervise"
	"rfipad/internal/tagmodel"
)

// Stream is the calibrate-then-recognize state machine for one tag
// stream: it buffers the static prelude, calibrates once enough of it
// has arrived (tolerating dead tags), then feeds every further reading
// to an online Recognizer. engine.Engine supervises Streams, sharding
// them across workers.
type Stream struct {
	cfg      Config
	static   []core.Reading
	cal      *core.Calibration
	rec      *core.Recognizer
	lastTime time.Duration
}

// NewStream builds a stream state machine from the config (event
// fan-out stays with the caller).
func NewStream(cfg Config) *Stream {
	return &Stream{cfg: cfg.withDefaults()}
}

// AppendReports decodes wire-format tag reports straight into a
// columnar batch, resolving each EPC to its row-major tag index — the
// one conversion from the wire representation to the pipeline's. EPC
// and Doppler are dropped here (the batch columns do not carry them;
// the tag index is all downstream stages key on).
func AppendReports(dst *core.ReadingBatch, reports []llrp.TagReport) {
	for i := range reports {
		rep := &reports[i]
		dst.Append(rep.Timestamp, rep.PhaseRad, rep.RSSdBm,
			core.NarrowTag(tagmodel.SerialOf(rep.EPC)-1))
	}
}

// IngestBatch feeds a columnar batch of readings. While the prelude is
// still accumulating it returns no events: readings up to the
// calibration boundary buffer into the static prelude, and the reading
// that completes CalibDuration triggers calibration (it is part of the
// prelude, not the recognized stream). Everything after the boundary
// flows to the recognizer in one columnar call. The batch is only read,
// never retained. A calibration error is terminal for the stream; the
// batch's remaining readings are dropped.
func (s *Stream) IngestBatch(b *core.ReadingBatch) ([]core.Event, error) {
	n := b.Len()
	i := 0
	for i < n && s.rec == nil {
		rd := b.Reading(i)
		i++
		if rd.Time > s.lastTime {
			s.lastTime = rd.Time
		}
		s.static = append(s.static, rd)
		if rd.Time < s.cfg.CalibDuration {
			continue
		}
		cal, err := core.Calibrate(s.static, s.cfg.Grid.NumTags())
		if err != nil {
			return nil, fmt.Errorf("live: calibration failed: %w", err)
		}
		s.cal = cal
		s.static = nil
		pipe := core.NewPipeline(s.cfg.Grid, cal)
		pipe.Obs = s.cfg.Obs
		s.rec = core.NewRecognizer(pipe, nil)
	}
	if i >= n {
		return nil, nil
	}
	rest := b.Slice(i, n)
	for _, t := range rest.Times {
		if t > s.lastTime {
			s.lastTime = t
		}
	}
	return s.rec.IngestBatch(&rest), nil
}

// Flush declares the stream over, forcing any pending stroke and
// letter out (no-op before calibration).
func (s *Stream) Flush() []core.Event {
	if s.rec == nil {
		return nil
	}
	return s.rec.Flush(s.lastTime + s.cfg.FlushAfter)
}

// Calibrated reports whether the static prelude completed.
func (s *Stream) Calibrated() bool { return s.rec != nil }

// Checkpoint exports the stream's durable recovery state: its
// calibration plus the frame cursor recognition would resume from.
// ok is false before calibration — an uncalibrated stream has nothing
// worth persisting.
func (s *Stream) Checkpoint(name string) (supervise.Checkpoint, bool) {
	if s.cal == nil || s.rec == nil {
		return supervise.Checkpoint{}, false
	}
	return supervise.Checkpoint{
		Stream:      name,
		StreamTime:  s.lastTime,
		FrameCursor: s.rec.FrameCursor(),
		Calibration: s.cal.Snapshot(),
	}, true
}

// RestoreStream rebuilds a stream from a checkpoint, skipping the
// calibration prelude: the restored recognizer resumes at the
// checkpoint's frame cursor, dropping older (already recognized)
// readings as late. The checkpoint's calibration is revalidated and
// must match the configured grid; any mismatch returns an error so the
// caller falls back to live calibration.
func RestoreStream(cfg Config, cp supervise.Checkpoint) (*Stream, error) {
	cfg = cfg.withDefaults()
	cal, err := core.RestoreCalibration(cp.Calibration)
	if err != nil {
		return nil, fmt.Errorf("live: restore: %w", err)
	}
	if cal.NumTags() != cfg.Grid.NumTags() {
		return nil, fmt.Errorf("live: restore: checkpoint has %d tags, grid wants %d",
			cal.NumTags(), cfg.Grid.NumTags())
	}
	pipe := core.NewPipeline(cfg.Grid, cal)
	pipe.Obs = cfg.Obs
	rec := core.NewRecognizer(pipe, nil)
	rec.SkipTo(cp.FrameCursor)
	return &Stream{cfg: cfg, cal: cal, rec: rec, lastTime: cp.StreamTime}, nil
}

// DeadTags returns how many tags calibration flagged dead (0 before
// calibration).
func (s *Stream) DeadTags() int {
	if s.cal == nil {
		return 0
	}
	return s.cal.DeadCount()
}

// LastTime returns the largest reading timestamp seen.
func (s *Stream) LastTime() time.Duration { return s.lastTime }
