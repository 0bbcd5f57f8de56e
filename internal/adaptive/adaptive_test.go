package adaptive

import (
	"math"
	"testing"

	"repro/internal/eval"
)

func TestCalibrateMapsAndClamps(t *testing.T) {
	items := []eval.ItemStats{
		{QuestionID: "easy", Difficulty: 0.9, Discrimination: 0.5},
		{QuestionID: "hard", Difficulty: 0.1, Discrimination: 0.5},
		{QuestionID: "mid", Difficulty: 0.5, Discrimination: 1.0},
		{QuestionID: "nobody", Difficulty: 0.0, Discrimination: math.NaN()},
		{QuestionID: "everybody", Difficulty: 1.0, Discrimination: -0.8},
		{QuestionID: "nan", Difficulty: math.NaN(), Discrimination: 0.2},
	}
	got := Calibrate(items)
	if len(got) != len(items) {
		t.Fatalf("calibrated %d items, want %d", len(got), len(items))
	}
	byID := make(map[string]ItemParams)
	for _, p := range got {
		if math.IsNaN(p.Diff) || math.IsInf(p.Diff, 0) || math.IsNaN(p.Disc) || math.IsInf(p.Disc, 0) {
			t.Fatalf("item %q calibrated to non-finite params %+v", p.QuestionID, p)
		}
		if p.Disc < 0.5 || p.Disc > 2.0 {
			t.Fatalf("item %q discrimination %v outside [0.5, 2.0]", p.QuestionID, p.Disc)
		}
		byID[p.QuestionID] = p
	}
	if e, h := byID["easy"], byID["hard"]; e.Diff >= h.Diff {
		t.Errorf("easy item location %v not below hard item location %v", e.Diff, h.Diff)
	}
	if m := byID["mid"]; math.Abs(m.Diff) > 1e-12 {
		t.Errorf("p=0.5 item location %v, want 0", m.Diff)
	}
	if m := byID["mid"]; m.Disc != 2.0 {
		t.Errorf("r=1 item discrimination %v, want 2.0", m.Disc)
	}
	// Degenerate difficulties clamp to the same magnitude on both sides.
	if n, e := byID["nobody"], byID["everybody"]; math.Abs(n.Diff+e.Diff) > 1e-9 {
		t.Errorf("clamped locations not symmetric: %v vs %v", n.Diff, e.Diff)
	}
	// NaN difficulty lands on the neutral midpoint.
	if n := byID["nan"]; n.Diff != 0 {
		t.Errorf("NaN difficulty mapped to %v, want 0", n.Diff)
	}
}

func TestItemParamsProbAndInformation(t *testing.T) {
	p := ItemParams{QuestionID: "q", Disc: 1.5, Diff: 0.5}
	if got := p.Prob(0.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Prob at theta=Diff is %v, want 0.5", got)
	}
	if lo, hi := p.Prob(-3), p.Prob(3); lo >= hi {
		t.Errorf("Prob not increasing: P(-3)=%v >= P(3)=%v", lo, hi)
	}
	// Information peaks where P = 0.5, i.e. at theta = Diff.
	at, off := p.Information(0.5), p.Information(2.0)
	if at <= off {
		t.Errorf("information at the item location (%v) not above off-target (%v)", at, off)
	}
	if want := 1.5 * 1.5 * 0.25; math.Abs(at-want) > 1e-12 {
		t.Errorf("peak information %v, want a^2/4 = %v", at, want)
	}
}

func TestEstimatorPriorAndConvergence(t *testing.T) {
	e := NewEstimator()
	ability, se := e.Estimate()
	if math.Abs(ability) > 1e-9 {
		t.Errorf("prior mean %v, want 0", ability)
	}
	if se < 0.9 || se > 1.1 {
		t.Errorf("prior SE %v, want about 1 (truncated standard normal)", se)
	}
	// Correct answers on mid items push ability up; SE shrinks.
	item := ItemParams{QuestionID: "q", Disc: 1.5, Diff: 0}
	for i := 0; i < 20; i++ {
		e.Observe(item, true)
	}
	upAbility, upSE := e.Estimate()
	if upAbility <= ability {
		t.Errorf("ability %v did not rise after 20 correct answers", upAbility)
	}
	if upSE >= se {
		t.Errorf("SE %v did not shrink after 20 observations (was %v)", upSE, se)
	}
	// Wrong answers pull it back down.
	for i := 0; i < 40; i++ {
		e.Observe(item, false)
	}
	downAbility, _ := e.Estimate()
	if downAbility >= upAbility {
		t.Errorf("ability %v did not fall after 40 wrong answers (was %v)", downAbility, upAbility)
	}
}

func TestEstimatorDegenerateHistoriesStayFinite(t *testing.T) {
	cases := []struct {
		name    string
		item    ItemParams
		correct bool
	}{
		{"all-correct-extreme-item", ItemParams{Disc: 2, Diff: 3.9}, true},
		{"all-wrong-extreme-item", ItemParams{Disc: 2, Diff: -3.9}, false},
		{"inf-params", ItemParams{Disc: math.Inf(1), Diff: math.Inf(-1)}, true},
		{"nan-params", ItemParams{Disc: math.NaN(), Diff: math.NaN()}, false},
	}
	for _, tc := range cases {
		e := NewEstimator()
		for i := 0; i < 500; i++ {
			e.Observe(tc.item, tc.correct)
		}
		ability, se := e.Estimate()
		if math.IsNaN(ability) || math.IsInf(ability, 0) || math.IsNaN(se) || math.IsInf(se, 0) {
			t.Errorf("%s: estimate (%v, %v) not finite", tc.name, ability, se)
		}
		if ability < gridLo || ability > gridHi {
			t.Errorf("%s: ability %v escaped the quadrature grid", tc.name, ability)
		}
	}
}

// FuzzObserve pins the numerical hardening: no observation sequence —
// including NaN/infinite item parameters and degenerate all-correct or
// all-wrong histories — may drive the posterior mean or SE non-finite.
func FuzzObserve(f *testing.F) {
	f.Add(1.5, 0.0, true, uint8(200))
	f.Add(math.Inf(1), math.Inf(-1), true, uint8(255))
	f.Add(math.NaN(), math.NaN(), false, uint8(100))
	f.Add(0.0, 4.0, false, uint8(1))
	f.Add(-3.0, 1e300, true, uint8(50))
	f.Fuzz(func(t *testing.T, disc, diff float64, correct bool, reps uint8) {
		e := NewEstimator()
		item := ItemParams{QuestionID: "f", Disc: disc, Diff: diff}
		for i := 0; i < int(reps); i++ {
			e.Observe(item, correct)
			// Interleave the opposite outcome on a sane item so mixed
			// histories get coverage too.
			if i%7 == 3 {
				e.Observe(ItemParams{QuestionID: "g", Disc: 1, Diff: 0}, !correct)
			}
		}
		ability, se := e.Estimate()
		if math.IsNaN(ability) || math.IsInf(ability, 0) || math.IsNaN(se) || math.IsInf(se, 0) {
			t.Fatalf("disc=%v diff=%v correct=%v reps=%d: estimate (%v, %v) not finite",
				disc, diff, correct, reps, ability, se)
		}
		if ability < gridLo || ability > gridHi {
			t.Fatalf("ability %v escaped the grid [%v, %v]", ability, gridLo, gridHi)
		}
	})
}

func TestRankAgreement(t *testing.T) {
	cases := []struct {
		name     string
		ref, got []float64
		want     float64
	}{
		{"perfect", []float64{1, 2, 3}, []float64{10, 20, 30}, 1},
		{"reversed", []float64{1, 2, 3}, []float64{30, 20, 10}, -1},
		{"one-swap", []float64{1, 2, 3}, []float64{20, 10, 30}, 1.0 / 3.0},
		{"candidate-tie", []float64{1, 2}, []float64{5, 5}, 0},
		{"ref-tie-ignored", []float64{1, 1, 2}, []float64{0, 9, 9}, 0.5},
		{"all-ref-tied", []float64{1, 1}, []float64{2, 1}, 1},
		{"empty", nil, nil, 1},
	}
	for _, tc := range cases {
		if got := RankAgreement(tc.ref, tc.got); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: RankAgreement = %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := RankAgreement([]float64{1}, []float64{1, 2}); !math.IsNaN(got) {
		t.Errorf("length mismatch: RankAgreement = %v, want NaN", got)
	}
}
