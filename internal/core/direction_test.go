package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"rfipad/internal/dsp"
	"rfipad/internal/geo"
	"rfipad/internal/stroke"
)

// synthSweepRSS builds RSS series for a hand visiting the given tags in
// order: each visited tag shows a trough at its visit time; other tags
// stay flat.
func synthSweepRSS(grid Grid, order []int, visitGap time.Duration, seed int64) []Reading {
	rng := rand.New(rand.NewSource(seed))
	total := time.Duration(len(order)+2) * visitGap
	visit := map[int]time.Duration{}
	for k, i := range order {
		visit[i] = time.Duration(k+1) * visitGap
	}
	var out []Reading
	for tm := time.Duration(0); tm < total; tm += 25 * time.Millisecond {
		for i := 0; i < grid.NumTags(); i++ {
			rss := -45 + rng.NormFloat64()*0.4
			if at, ok := visit[i]; ok {
				d := (tm - at).Seconds() / 0.12
				rss -= 9 * math.Exp(-d*d)
			}
			out = append(out, Reading{TagIndex: i, Time: tm, RSS: rss, Phase: 1})
		}
	}
	return out
}

func TestFindTagTroughsOrdering(t *testing.T) {
	g := Grid{Rows: 5, Cols: 5}
	order := []int{2, 7, 12, 17, 22} // down column 2... visiting row 0 upward
	readings := synthSweepRSS(g, order, 300*time.Millisecond, 1)
	troughs := FindTagTroughs(readings, g.NumTags(), order)
	if len(troughs) != 5 {
		t.Fatalf("troughs = %d, want 5", len(troughs))
	}
	for k, tr := range troughs {
		if tr.TagIndex != order[k] {
			t.Errorf("trough %d on tag %d, want %d", k, tr.TagIndex, order[k])
		}
	}
	// Out-of-range indices are skipped silently.
	if got := FindTagTroughs(readings, g.NumTags(), []int{-1, 99}); len(got) != 0 {
		t.Errorf("bogus tags produced %d troughs", len(got))
	}
}

func TestEstimateDirectionUpAndDown(t *testing.T) {
	g := Grid{Rows: 5, Cols: 5}
	col := []int{2, 7, 12, 17, 22} // indices bottom row → top row
	// Visiting in this order means moving +y (upward).
	up := synthSweepRSS(g, col, 300*time.Millisecond, 2)
	dir, _, ok := EstimateDirection(up, g, col)
	if !ok {
		t.Fatal("no direction")
	}
	if dir.Y < 0.9 {
		t.Errorf("upward sweep direction = %v", dir)
	}
	// Reverse order → downward.
	rev := []int{22, 17, 12, 7, 2}
	down := synthSweepRSS(g, rev, 300*time.Millisecond, 3)
	dir, _, ok = EstimateDirection(down, g, col)
	if !ok {
		t.Fatal("no direction")
	}
	if dir.Y > -0.9 {
		t.Errorf("downward sweep direction = %v", dir)
	}
}

func TestEstimateDirectionDiagonal(t *testing.T) {
	g := Grid{Rows: 5, Cols: 5}
	diag := []int{0, 6, 12, 18, 24} // bottom-left → top-right
	readings := synthSweepRSS(g, diag, 250*time.Millisecond, 4)
	dir, troughs, ok := EstimateDirection(readings, g, diag)
	if !ok {
		t.Fatal("no direction")
	}
	want := geo.V2(1, 1).Unit()
	if directionAngleDiff(dir, want) > 0.3 {
		t.Errorf("diagonal direction = %v, want ≈%v", dir, want)
	}
	if len(troughs) < 3 {
		t.Errorf("troughs = %d", len(troughs))
	}
}

func TestEstimateDirectionInsufficientTroughs(t *testing.T) {
	g := Grid{Rows: 5, Cols: 5}
	// Flat RSS everywhere: no troughs, no direction.
	rng := rand.New(rand.NewSource(5))
	var readings []Reading
	for tm := time.Duration(0); tm < 2*time.Second; tm += 30 * time.Millisecond {
		for i := 0; i < 25; i++ {
			readings = append(readings, Reading{TagIndex: i, Time: tm, RSS: -45 + rng.NormFloat64()*0.3})
		}
	}
	if _, _, ok := EstimateDirection(readings, g, []int{2, 7, 12}); ok {
		t.Error("flat RSS should not yield a direction")
	}
}

func TestDirectionFor(t *testing.T) {
	tests := []struct {
		shape stroke.Shape
		dir   geo.Vec2
		want  stroke.Direction
	}{
		{stroke.Horizontal, geo.V2(1, 0), stroke.Forward},
		{stroke.Horizontal, geo.V2(-1, 0.1), stroke.Reverse},
		{stroke.Vertical, geo.V2(0, -1), stroke.Forward},
		{stroke.Vertical, geo.V2(0.1, 1), stroke.Reverse},
		{stroke.SlashUp, geo.V2(-0.7, -0.7), stroke.Forward},
		{stroke.SlashUp, geo.V2(0.7, 0.7), stroke.Reverse},
		{stroke.SlashDown, geo.V2(0.7, -0.7), stroke.Forward},
		{stroke.SlashDown, geo.V2(-0.7, 0.7), stroke.Reverse},
		{stroke.ArcLeft, geo.V2(0.2, -0.9), stroke.Forward},
		{stroke.ArcLeft, geo.V2(0.2, 0.9), stroke.Reverse},
		{stroke.ArcRight, geo.V2(-0.2, -0.9), stroke.Forward},
	}
	for _, tt := range tests {
		got, ok := DirectionFor(tt.shape, tt.dir)
		if !ok || got != tt.want {
			t.Errorf("DirectionFor(%v, %v) = %v,%v, want %v", tt.shape, tt.dir, got, ok, tt.want)
		}
	}
	if _, ok := DirectionFor(stroke.Click, geo.V2(1, 0)); ok {
		t.Error("click should have no direction")
	}
	if _, ok := DirectionFor(stroke.Horizontal, geo.V2(0, 0)); ok {
		t.Error("zero vector should fail")
	}
}

func TestArcEndpointsDirection(t *testing.T) {
	g := Grid{Rows: 5, Cols: 5}
	troughs := []TagTrough{
		{TagIndex: 23, At: 0},                      // (4,3): top
		{TagIndex: 10, At: 500 * time.Millisecond}, // (2,0): left middle
		{TagIndex: 3, At: time.Second},             // (0,3): bottom
	}
	dir, ok := arcEndpointsDirection(g, troughs)
	if !ok {
		t.Fatal("no direction")
	}
	if dir.Y >= 0 {
		t.Errorf("top→bottom arc direction = %v", dir)
	}
	if _, ok := arcEndpointsDirection(g, troughs[:1]); ok {
		t.Error("single trough should fail")
	}
	same := []TagTrough{{TagIndex: 5, At: 0}, {TagIndex: 5, At: time.Second}}
	if _, ok := arcEndpointsDirection(g, same); ok {
		t.Error("zero displacement should fail")
	}
}

// synthPass builds one stroke window in which the hand passes over the
// tags of path in order: each visited tag shows a phase excursion and
// an RSS trough around its visit time, every other tag only noise. A
// few reports are duplicated or delivered late, as a reconnecting
// transport does, so the per-tag split has to sort and deduplicate.
func synthPass(grid Grid, path []int, centres []float64, seed int64) []Reading {
	rng := rand.New(rand.NewSource(seed))
	const gap = 250 * time.Millisecond
	visit := map[int]time.Duration{}
	for k, i := range path {
		visit[i] = time.Duration(k+1) * gap
	}
	total := time.Duration(len(path)+1) * gap
	var out []Reading
	for tm := time.Duration(0); tm < total; tm += 20 * time.Millisecond {
		for i := 0; i < grid.NumTags(); i++ {
			p := centres[i] + rng.NormFloat64()*0.04
			rss := -45 + rng.NormFloat64()*0.4
			if at, ok := visit[i]; ok {
				d := (tm - at).Seconds() / 0.12
				g := math.Exp(-d * d)
				p += 1.5 * g
				rss -= 9 * g
			}
			r := Reading{TagIndex: i, Time: tm + time.Duration(i)*100*time.Microsecond, Phase: dsp.Wrap(p), RSS: rss}
			out = append(out, r)
			switch rng.Intn(40) {
			case 0: // duplicated report: same tag and time, first one wins
				r.RSS -= 20
				out = append(out, r)
			case 1: // late report: lands after a later reading of its tag
				if len(out) > 3*grid.NumTags() {
					k := len(out) - 1 - grid.NumTags()
					out[k], out[len(out)-1] = out[len(out)-1], out[k]
				}
			}
		}
	}
	return out
}

// TestRecognizeWindowTroughsMatchFindTagTroughs pins the trough stage
// of RecognizeWindow, which reuses the per-tag split the disturbance
// map already made, to the public FindTagTroughs/EstimateDirection over
// a fresh grid-sized split of the same window.
func TestRecognizeWindowTroughsMatchFindTagTroughs(t *testing.T) {
	g := Grid{Rows: 5, Cols: 5}
	n := g.NumTags()
	centres := evenCentres(n)
	cal, err := Calibrate(synthStatic(n, 60, centres, constSigmas(n, 0.04), 51), n)
	if err != nil {
		t.Fatal(err)
	}
	// A second calibration with tag 12 dead exercises the interpolated
	// image; the split still has one series per grid tag.
	var holed []Reading
	for _, r := range synthStatic(n, 60, centres, constSigmas(n, 0.04), 52) {
		if r.TagIndex != 12 {
			holed = append(holed, r)
		}
	}
	deadCal, err := Calibrate(holed, n)
	if err != nil {
		t.Fatal(err)
	}
	paths := [][]int{
		{2, 7, 12, 17, 22},   // vertical, upward
		{22, 17, 12, 7, 2},   // vertical, downward
		{10, 11, 12, 13, 14}, // horizontal
		{0, 6, 12, 18, 24},   // diagonal
		{20, 16, 12, 8, 4},   // anti-diagonal
		{21, 17, 11, 7, 1},   // arc-like bend
		{12},                 // click
	}
	withTroughs := 0
	for _, c := range []*Calibration{cal, deadCal} {
		p := NewPipeline(g, c)
		for k, path := range paths {
			readings := synthPass(g, path, centres, int64(60+k))
			res := p.RecognizeWindow(readings)

			vals := InterpolateDead(g, DisturbanceMap(readings, c, DisturbanceOptions{}), c.Dead)
			mask := LargestComponent(g, NewGridImage(g, vals).Binarize(), vals)
			shape := ClassifyShapeDegraded(g, vals, mask, c.Dead)
			if !shape.Ok {
				if res.Ok || res.Troughs != nil {
					t.Errorf("path %v: unclassified window still produced %+v", path, res)
				}
				continue
			}
			want := FindTagTroughs(readings, g.NumTags(), shape.Cells)
			if !reflect.DeepEqual(res.Troughs, want) {
				t.Errorf("path %v: RecognizeWindow troughs %+v, FindTagTroughs %+v", path, res.Troughs, want)
			}
			if len(want) >= 2 {
				withTroughs++
			}
			if shape.Shape == stroke.Click || shape.Shape == stroke.ArcLeft || shape.Shape == stroke.ArcRight {
				continue // click has no fit; arcs replace it with the endpoints
			}
			dir, _, _ := EstimateDirection(readings, g, shape.Cells)
			if res.TravelDir != dir {
				t.Errorf("path %v: RecognizeWindow direction %v, EstimateDirection %v", path, res.TravelDir, dir)
			}
		}
	}
	if withTroughs < len(paths) {
		t.Errorf("only %d windows produced two or more troughs; the comparison is vacuous", withTroughs)
	}
}

// TestPipelineCalibrationCoversGrid pins the invariant RecognizeWindow's
// shared per-tag split relies on: every calibration a pipeline is built
// with has exactly one entry per grid tag, whether measured (with or
// without dead tags or stray out-of-range reads), uniform, or restored
// from a checkpoint snapshot.
func TestPipelineCalibrationCoversGrid(t *testing.T) {
	for _, g := range []Grid{{Rows: 5, Cols: 5}, {Rows: 3, Cols: 4}, {Rows: 1, Cols: 6}} {
		n := g.NumTags()
		static := synthStatic(n+2, 60, evenCentres(n+2), constSigmas(n+2, 0.04), 71)
		var kept []Reading
		for _, r := range static {
			if r.TagIndex != 0 { // tag 0 never answers: dead
				kept = append(kept, r)
			}
		}
		cal, err := Calibrate(kept, n)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreCalibration(cal.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		for name, c := range map[string]*Calibration{
			"measured": cal, "uniform": UniformCalibration(n), "restored": restored,
		} {
			if c.NumTags() != n {
				t.Errorf("%dx%d %s calibration has %d tags, grid has %d", g.Rows, g.Cols, name, c.NumTags(), n)
			}
		}
	}
}
