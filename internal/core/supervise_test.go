package core

import (
	"math"
	"slices"
	"testing"
	"time"

	"rfipad/internal/obs"
)

// staticCalibration measures a real calibration from a synthetic static
// capture so snapshot tests exercise the same state production uses.
func staticCalibration(t *testing.T, numTags int) *Calibration {
	t.Helper()
	var static []Reading
	for i := 0; i < numTags; i++ {
		for j := 0; j < 40; j++ {
			static = append(static, Reading{
				TagIndex: i,
				Time:     time.Duration(j) * 25 * time.Millisecond,
				Phase:    float64(i)*0.3 + 0.02*math.Sin(float64(j)),
				RSS:      -55,
			})
		}
	}
	cal, err := Calibrate(static, numTags)
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

func TestCalibrationSnapshotRoundTrip(t *testing.T) {
	cal := staticCalibration(t, 25)
	snap := cal.Snapshot()

	restored, err := RestoreCalibration(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumTags() != cal.NumTags() {
		t.Fatalf("restored %d tags, want %d", restored.NumTags(), cal.NumTags())
	}
	for i := 0; i < cal.NumTags(); i++ {
		if restored.MeanPhase[i] != cal.MeanPhase[i] || restored.Bias[i] != cal.Bias[i] ||
			restored.TVRate[i] != cal.TVRate[i] || restored.Dead[i] != cal.Dead[i] {
			t.Fatalf("tag %d statistics diverged after restore", i)
		}
		// Weights are derived, not persisted: the restore must recompute
		// the identical Eq. 9 weighting.
		if got, want := restored.Weight(i), cal.Weight(i); math.Abs(got-want) > 1e-15 {
			t.Fatalf("tag %d weight %v, want %v", i, got, want)
		}
	}

	// The snapshot is a deep copy: mutating it must not reach back into
	// the live calibration.
	snap.MeanPhase[0] = 99
	snap.Dead[1] = true
	if cal.MeanPhase[0] == 99 || cal.Dead[1] {
		t.Fatal("snapshot aliases the calibration's slices")
	}
}

func TestRestoreCalibrationRejectsGarbage(t *testing.T) {
	good := staticCalibration(t, 8).Snapshot()

	cases := map[string]func(s *CalibrationSnapshot){
		"empty":            func(s *CalibrationSnapshot) { *s = CalibrationSnapshot{} },
		"length mismatch":  func(s *CalibrationSnapshot) { s.Bias = s.Bias[:3] },
		"nan mean phase":   func(s *CalibrationSnapshot) { s.MeanPhase[2] = math.NaN() },
		"inf tv rate":      func(s *CalibrationSnapshot) { s.TVRate[0] = math.Inf(1) },
		"zero bias":        func(s *CalibrationSnapshot) { s.Bias[1] = 0 },
		"negative bias":    func(s *CalibrationSnapshot) { s.Bias[1] = -0.5 },
		"mostly dead grid": func(s *CalibrationSnapshot) { s.Dead[0], s.Dead[1], s.Dead[2] = true, true, true },
	}
	for name, mutate := range cases {
		s := CalibrationSnapshot{
			MeanPhase: append([]float64(nil), good.MeanPhase...),
			Bias:      append([]float64(nil), good.Bias...),
			TVRate:    append([]float64(nil), good.TVRate...),
			Dead:      append([]bool(nil), good.Dead...),
		}
		mutate(&s)
		if _, err := RestoreCalibration(s); err == nil {
			t.Errorf("%s: restore accepted a garbage snapshot", name)
		}
	}

	// Non-finite statistics on a dead tag are fine: the tag carries no
	// weight, so its numbers are never consulted.
	s := good
	s.Dead[4] = true
	s.MeanPhase[4] = math.NaN()
	if _, err := RestoreCalibration(s); err != nil {
		t.Errorf("dead tag's NaN rejected: %v", err)
	}
}

// TestSanitizerAdmit runs AdmitColumns over a table of batches: the
// one-element cases pin each rejection reason and each pass-through
// boundary, and the multi-element case pins that newest advances over
// admitted readings inside the batch.
func TestSanitizerAdmit(t *testing.T) {
	rd := func(at time.Duration, phase, rss float64) Reading {
		return Reading{Time: at, Phase: phase, RSS: rss}
	}
	cases := []struct {
		name   string
		batch  []Reading
		newest time.Duration
		want   []time.Duration // admitted timestamps, in order
		reason string          // rejection reason counted (empty: none)
		count  float64         // rejections counted under reason
	}{
		{"clean", []Reading{rd(5*time.Second, 1.2, -60)}, 5 * time.Second,
			[]time.Duration{5 * time.Second}, "", 0},
		{"nan phase", []Reading{rd(5*time.Second, math.NaN(), -60)}, 5 * time.Second, nil, "phase", 1},
		{"+inf phase", []Reading{rd(5*time.Second, math.Inf(1), -60)}, 5 * time.Second, nil, "phase", 1},
		{"rss too low", []Reading{rd(5*time.Second, 1, -150)}, 5 * time.Second, nil, "rss", 1},
		{"rss positive", []Reading{rd(5*time.Second, 1, 3)}, 5 * time.Second, nil, "rss", 1},
		{"clock regression", []Reading{rd(time.Second, 1, -60)}, 10 * time.Second, nil, "time_regression", 1},
		// Within the duplicate window: modest regression is reordering,
		// not a broken clock, and passes through to the recognizer's
		// dedup.
		{"inside regression window", []Reading{rd(9500*time.Millisecond, 1, -60)}, 10 * time.Second,
			[]time.Duration{9500 * time.Millisecond}, "", 0},
		// Before any delivery (newest == 0) nothing can regress.
		{"first reading", []Reading{rd(0, 1, -60)}, 0, []time.Duration{0}, "", 0},
		// newest advances to 10 s on the second reading, so 9.5 s is
		// reordering but 5 s regresses — though both are newer than the
		// 2 s the batch started from.
		{"newest advances in batch", []Reading{
			rd(3*time.Second, 1, -60), rd(10*time.Second, 1, -60),
			rd(9500*time.Millisecond, 1, -60), rd(5*time.Second, 1, -60),
		}, 2 * time.Second,
			[]time.Duration{3 * time.Second, 10 * time.Second, 9500 * time.Millisecond},
			"time_regression", 1},
	}
	reasons := []string{"phase", "rss", "time_regression"}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			san := NewSanitizer(reg)
			b := &ReadingBatch{}
			for _, r := range tc.batch {
				b.AppendReading(r)
			}
			san.AdmitColumns(b, tc.newest)
			if !slices.Equal(b.Times, tc.want) {
				t.Errorf("admitted %v, want %v", b.Times, tc.want)
			}
			if n := b.Len(); len(b.Phases) != n || len(b.RSS) != n || len(b.TagIndices) != n {
				t.Errorf("columns diverged: %d times, %d phases, %d rss, %d tags",
					n, len(b.Phases), len(b.RSS), len(b.TagIndices))
			}
			snap := reg.Snapshot()
			for _, reason := range reasons {
				want := 0.0
				if reason == tc.reason {
					want = tc.count
				}
				if got := snap.Value("readings_rejected_total", obs.L("reason", reason)); got != want {
					t.Errorf("readings_rejected_total{reason=%q} = %v, want %v", reason, got, want)
				}
			}
		})
	}
}

func TestRecognizerSkipTo(t *testing.T) {
	cal := UniformCalibration(25)
	grid := Grid{Rows: 5, Cols: 5}

	rec := NewRecognizer(NewPipeline(grid, cal), nil)
	frame := NewSegmenter().FrameLen

	// SkipTo aligns down to a frame boundary and moves the cursor.
	target := 7*time.Second + frame/3
	rec.SkipTo(target)
	want := target - target%frame
	if got := rec.FrameCursor(); got != want {
		t.Fatalf("FrameCursor after SkipTo = %v, want %v", got, want)
	}

	// Ingesting a reading older than the cursor must not rewind it.
	rec.Ingest(Reading{TagIndex: 0, Time: want - 2*frame, Phase: 1, RSS: -60})
	if got := rec.FrameCursor(); got < want {
		t.Fatalf("late reading rewound cursor to %v", got)
	}

	// SkipTo after ingest started is a no-op: it only positions a fresh
	// recognizer (the restore path), never discards live state.
	rec2 := NewRecognizer(NewPipeline(grid, cal), nil)
	rec2.Ingest(Reading{TagIndex: 0, Time: frame, Phase: 1, RSS: -60})
	cursorBefore := rec2.FrameCursor()
	rec2.SkipTo(time.Minute)
	if got := rec2.FrameCursor(); got != cursorBefore {
		t.Fatalf("SkipTo moved a live recognizer from %v to %v", cursorBefore, got)
	}
}
