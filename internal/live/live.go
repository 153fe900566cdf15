// Package live is the backend consumer loop behind rfipad-live: it
// drains tag reports from a fault-tolerant llrp.Session, calibrates
// the diversity suppression once from the static prelude (tolerating
// dead tags), and recognizes strokes and letters online. Extracting it
// from the command makes the full readerd → session → recognizer path
// drivable from end-to-end tests, including chaos runs through
// faultnet.
package live

import (
	"errors"
	"fmt"
	"log/slog"
	"time"

	"rfipad/internal/core"
	"rfipad/internal/llrp"
	"rfipad/internal/obs"
	"rfipad/internal/obs/trace"
	"rfipad/internal/supervise"
)

// Config tunes a run.
type Config struct {
	// Grid is the tag-array geometry (default 5×5).
	Grid core.Grid
	// CalibDuration is the static prelude length used for calibration
	// (default 3 s of stream time).
	CalibDuration time.Duration
	// FlushAfter pads the final flush horizon past the last reading
	// (default 2 s).
	FlushAfter time.Duration
	// OnEvent receives every recognition event as it fires (optional).
	OnEvent func(core.Event)
	// OnStatus receives human-readable progress lines (optional,
	// retained for callers that render raw lines; structured consumers
	// use Logger).
	OnStatus func(string)
	// Logger receives structured progress records with the shared
	// component/field convention (optional; nil disables).
	Logger *slog.Logger
	// Obs selects the metrics registry run telemetry lands in (nil =
	// obs.Default()). The same registry should be handed to the
	// llrp.Session so Result.Telemetry snapshots both.
	Obs *obs.Registry
	// Trace, when set, records the run's lifecycle spans (restore or
	// calibrate, per-batch ingest, results) under StreamName. A restored
	// run continues the trace identity its checkpoint carries. Nil
	// disables tracing.
	Trace *trace.Tracer
	// Flight, when set, receives anomaly dumps — here, checkpoints that
	// failed restore.
	Flight *trace.Flight

	// Checkpoints, when set, makes the run durable: a fresh-enough
	// checkpoint restores calibration at startup (skipping the static
	// prelude), and the calibration is re-saved periodically and on
	// every exit path — including a drain triggered by SIGTERM — so a
	// restarted process resumes recognizing immediately.
	Checkpoints *supervise.Store
	// StreamName keys the checkpoint file (default "live").
	StreamName string
	// CheckpointEvery is the periodic save interval (default 30 s).
	CheckpointEvery time.Duration
	// CheckpointMaxAge bounds restore staleness: an older checkpoint
	// is ignored and the run falls back to live calibration (default
	// 15 min; the static environment a calibration describes drifts on
	// that scale when furniture or antennas move).
	CheckpointMaxAge time.Duration
}

func (c Config) withDefaults() Config {
	if c.Grid.Rows == 0 && c.Grid.Cols == 0 {
		c.Grid = core.Grid{Rows: 5, Cols: 5}
	}
	if c.CalibDuration <= 0 {
		c.CalibDuration = 3 * time.Second
	}
	if c.FlushAfter <= 0 {
		c.FlushAfter = 2 * time.Second
	}
	if c.StreamName == "" {
		c.StreamName = "live"
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 30 * time.Second
	}
	if c.CheckpointMaxAge <= 0 {
		c.CheckpointMaxAge = 15 * time.Minute
	}
	return c
}

// Result summarizes a completed run.
type Result struct {
	// Letters is the recognized text.
	Letters string
	// Strokes counts recognized strokes.
	Strokes int
	// DeadTags is how many tags calibration flagged dead.
	DeadTags int
	// Reconnects is the session's reconnect count at stream end.
	Reconnects int
	// Calibrated reports whether the static prelude completed (or was
	// restored from a checkpoint).
	Calibrated bool
	// CalibrationRestored reports whether calibration came from a
	// checkpoint instead of a live prelude.
	CalibrationRestored bool
	// Telemetry is the final snapshot of the run's metrics registry:
	// everything the session, recognizer, and stage spans recorded, so
	// e2e and chaos tests can assert on runtime health without
	// scraping /metrics.
	Telemetry obs.Snapshot
}

// ReportSource is the slice of llrp.Session the loop needs (Session
// satisfies it; tests may substitute).
type ReportSource interface {
	NextReports() ([]llrp.TagReport, error)
	Stats() llrp.SessionStats
}

// Run drains the session until the stream ends cleanly, recognizing
// online. It returns the partial result alongside any terminal error,
// so a run that survived mid-word disconnects but finally gave up
// still reports what it recognized.
func Run(sess ReportSource, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	status := func(format string, args ...any) {
		if cfg.OnStatus != nil {
			cfg.OnStatus(fmt.Sprintf(format, args...))
		}
	}
	logInfo := func(msg string, args ...any) {
		if cfg.Logger != nil {
			cfg.Logger.Info(msg, args...)
		}
	}

	reg := obs.Or(cfg.Obs)
	obs.EnableRuntimeMetrics(reg)
	calibratedGauge := reg.Gauge("rfipad_calibrated",
		"Whether the static-prelude calibration completed (0 or 1).")
	deadTagsGauge := reg.Gauge("rfipad_dead_tags",
		"Tags the calibration flagged dead (their cells are interpolated).")
	readyGauge := reg.Gauge("rfipad_ready",
		"Whether the run is ready to serve: calibration restored-or-complete (0 or 1).")
	restoredCounter := reg.Counter("rfipad_calibration_restored_total",
		"Calibrations restored from a checkpoint, skipping the static prelude.")
	savedCounter := reg.Counter("rfipad_checkpoints_saved_total",
		"Calibration checkpoints written.")
	restoreOutcomes := NewRestoreCounters(reg)
	calibratedGauge.Set(0)
	readyGauge.Set(0)
	san := core.NewSanitizer(reg)

	var res Result
	st := NewStream(cfg)
	tr := cfg.Trace.Stream(cfg.StreamName)
	flightDump := func(detail string) {
		if cfg.Flight == nil {
			return
		}
		cfg.Flight.Record(trace.Dump{
			Trigger: trace.TriggerCorruptCheckpoint,
			Stream:  cfg.StreamName,
			Trace:   tr.ID(),
			Detail:  detail,
			Spans:   tr.Spans(),
		})
	}
	markCalibrated := func() {
		res.Calibrated = true
		res.DeadTags = st.DeadTags()
		calibratedGauge.Set(1)
		deadTagsGauge.Set(float64(res.DeadTags))
		readyGauge.Set(1)
	}
	if cfg.Checkpoints != nil {
		restoreStart := time.Now()
		switch cp, err := cfg.Checkpoints.LoadFresh(cfg.StreamName, cfg.CheckpointMaxAge); {
		case err == nil:
			if rst, rerr := RestoreStream(cfg, cp); rerr == nil {
				st = rst
				res.CalibrationRestored = true
				restoredCounter.Inc()
				restoreOutcomes.Restored.Inc()
				markCalibrated()
				// Continue the previous incarnation's trace: the restart
				// shows up as a restore span inside one stitched trace.
				if tid, terr := trace.ParseID(cp.TraceID); terr == nil && tid != 0 {
					tr = cfg.Trace.Adopt(cfg.StreamName, tid)
				}
				tr.Add(trace.Span{Name: trace.SpanRestore, Start: restoreStart,
					Duration: time.Since(restoreStart), Count: res.DeadTags})
				logInfo("calibration restored from checkpoint",
					"saved_at", cp.SavedAt, "stream_time", cp.StreamTime,
					"dead_tags", res.DeadTags)
				status("calibration restored from checkpoint; recognizing immediately")
			} else {
				restoreOutcomes.Corrupt.Inc()
				flightDump(rerr.Error())
				if cfg.Logger != nil {
					cfg.Logger.Warn("checkpoint unusable; calibrating live", "err", rerr)
				}
			}
		case errors.Is(err, supervise.ErrNoCheckpoint):
			// First run: nothing to restore.
			restoreOutcomes.Missing.Inc()
		default:
			restoreOutcomes.ObserveLoad(err)
			if errors.Is(err, supervise.ErrCorrupt) || errors.Is(err, supervise.ErrVersion) {
				flightDump(err.Error())
			}
			if cfg.Logger != nil {
				cfg.Logger.Warn("checkpoint load failed; calibrating live", "err", err)
			}
		}
	}
	var lastSave time.Time
	saveCheckpoint := func() {
		if cfg.Checkpoints == nil {
			return
		}
		cp, ok := st.Checkpoint(cfg.StreamName)
		if !ok {
			return
		}
		if tr != nil {
			cp.TraceID = tr.ID().String()
		}
		if err := cfg.Checkpoints.Save(cp); err != nil {
			if cfg.Logger != nil {
				cfg.Logger.Warn("checkpoint save failed", "err", err)
			}
			return
		}
		savedCounter.Inc()
		lastSave = time.Now()
	}
	// finish stamps the session/telemetry state onto the result at
	// every exit path — and persists the calibration, so even a run
	// killed mid-word (SIGTERM cancelling the session context) leaves
	// a checkpoint its successor restores. The ready gauge drops first
	// so a load balancer stops routing before the process exits.
	finish := func() {
		readyGauge.Set(0)
		saveCheckpoint()
		res.Reconnects = sess.Stats().Reconnects
		res.Telemetry = reg.Snapshot()
	}
	handle := func(evs []core.Event) {
		if len(evs) == 0 {
			return
		}
		if tr != nil {
			tr.Add(trace.Span{Name: trace.SpanResult, Start: time.Now(), Count: len(evs)})
		}
		for _, ev := range evs {
			switch ev.Kind {
			case core.StrokeDetected:
				res.Strokes++
				if cfg.Logger != nil {
					cfg.Logger.Debug("stroke recognized", "motion", ev.Stroke.Motion,
						"start", ev.Span.Start, "end", ev.Span.End)
				}
			case core.LetterDeduced:
				res.Letters += string(ev.Letter)
				if cfg.Logger != nil {
					cfg.Logger.Info("letter deduced", "letter", string(ev.Letter), "ok", ev.LetterOK)
				}
			}
			if cfg.OnEvent != nil {
				cfg.OnEvent(ev)
			}
		}
	}

	// ingestSpans closes out one traced batch (callers check tr != nil).
	ingestSpans := func(start time.Time, admitted, rejected int, err error) {
		if rejected > 0 {
			tr.Add(trace.Span{Name: trace.SpanSanitize, Start: start, Count: rejected})
		}
		sp := trace.Span{Name: trace.SpanIngest, Start: start,
			Duration: time.Since(start), Count: admitted}
		if err != nil {
			sp.Err = err.Error()
		}
		tr.Add(sp)
	}
	// The drain loop is columnar end to end: each report batch decodes
	// straight into one reused ReadingBatch, is sanitized in place, and
	// flows to the stream in a single IngestBatch call.
	cols := core.GetBatch()
	defer core.PutBatch(cols)
	for {
		batch, err := sess.NextReports()
		if errors.Is(err, llrp.ErrStreamEnded) {
			break
		}
		if err != nil {
			finish()
			return res, err
		}
		var batchStart time.Time
		if tr != nil {
			batchStart = time.Now()
		}
		cols.Reset()
		AppendReports(cols, batch)
		san.AdmitColumns(cols, st.LastTime())
		admitted := cols.Len()
		rejected := len(batch) - admitted
		evs, err := st.IngestBatch(cols)
		if err != nil {
			if tr != nil {
				ingestSpans(batchStart, admitted, rejected, err)
			}
			finish()
			return res, err
		}
		if !res.Calibrated && st.Calibrated() {
			markCalibrated()
			tr.Add(trace.Span{Name: trace.SpanCalibrate, Start: time.Now(),
				Count: res.DeadTags})
			saveCheckpoint()
			logInfo("calibrated", "dead_tags", res.DeadTags,
				"prelude", cfg.CalibDuration)
			if res.DeadTags > 0 {
				status("calibrated with %d dead tag(s); interpolating their cells", res.DeadTags)
			} else {
				status("calibrated; recognizing online")
			}
		}
		handle(evs)
		if tr != nil && len(batch) > 0 {
			ingestSpans(batchStart, admitted, rejected, nil)
		}
		if res.Calibrated && cfg.Checkpoints != nil && time.Since(lastSave) >= cfg.CheckpointEvery {
			saveCheckpoint()
		}
	}
	handle(st.Flush())
	finish()
	logInfo("stream ended", "letters", res.Letters, "strokes", res.Strokes,
		"reconnects", res.Reconnects, "dead_tags", res.DeadTags)
	return res, nil
}
