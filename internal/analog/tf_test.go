package analog

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPolyEval(t *testing.T) {
	// p(s) = 1 + 2s + 3s^2 at s=2: 1+4+12 = 17.
	p := Poly{1, 2, 3}
	if got := p.Eval(2); got != 17 {
		t.Errorf("Eval = %v", got)
	}
}

func TestSinglePoleProperties(t *testing.T) {
	h := SinglePole(100, 1e4)
	if dc := h.DCGain(); math.Abs(dc-100) > 1e-9 {
		t.Errorf("DC gain %v", dc)
	}
	// -3 dB at the pole.
	if db := h.MagnitudeDB(1e4) - h.MagnitudeDB(1); math.Abs(db+3.01) > 0.05 {
		t.Errorf("relative gain at pole %v dB, want -3.01", db)
	}
	// Cutoff finder agrees with the pole.
	if wc := h.CutoffOmega(); math.Abs(wc-1e4) > 50 {
		t.Errorf("cutoff %v, want 1e4", wc)
	}
	// Unity gain at A0*wp for a single pole (well above the pole).
	if wu := h.UnityGainOmega(); math.Abs(wu-1e6)/1e6 > 0.01 {
		t.Errorf("unity gain %v, want ~1e6", wu)
	}
	// Phase: -45 degrees at the pole.
	if ph := h.PhaseDeg(1e4); math.Abs(ph+45) > 0.5 {
		t.Errorf("phase at pole %v, want -45", ph)
	}
}

func TestTwoPolePhaseMargin(t *testing.T) {
	// Widely split poles with crossover at the second pole: PM ~ 52 deg.
	h := TwoPole(1000, 1e3, 1e6)
	pm := h.PhaseMarginDeg()
	if pm < 45 || pm > 60 {
		t.Errorf("phase margin %v, want ~52", pm)
	}
	// Single pole has ~90 degrees of margin.
	pm1 := SinglePole(1000, 1e3).PhaseMarginDeg()
	if math.Abs(pm1-90) > 1 {
		t.Errorf("single-pole margin %v, want ~90", pm1)
	}
}

func TestQuickMagnitudeMonotoneSinglePole(t *testing.T) {
	// Property: a single-pole low-pass magnitude is non-increasing in
	// frequency.
	h := SinglePole(50, 1e5)
	f := func(aRaw, bRaw uint16) bool {
		a := 1 + float64(aRaw)
		b := a + 1 + float64(bRaw)
		return h.MagnitudeDB(b) <= h.MagnitudeDB(a)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBodeSweep(t *testing.T) {
	h := SinglePole(10, 1e3)
	pts := h.BodeSweep(1e1, 1e5, 10)
	if len(pts) < 30 {
		t.Fatalf("sweep too short: %d points", len(pts))
	}
	if pts[0].Omega != 1e1 {
		t.Errorf("sweep start %v", pts[0].Omega)
	}
	// Magnitude decreases across the sweep.
	if pts[len(pts)-1].MagDB >= pts[0].MagDB {
		t.Error("sweep magnitude did not fall")
	}
}

func TestNoUnityCrossing(t *testing.T) {
	// A below-unity amplifier never crosses 1.
	h := SinglePole(0.5, 1e3)
	if wu := h.UnityGainOmega(); wu != 0 {
		t.Errorf("unity crossing %v for sub-unity gain, want 0", wu)
	}
	if !math.IsNaN(h.PhaseMarginDeg()) {
		t.Error("phase margin should be NaN without a crossing")
	}
}

func TestPolyString(t *testing.T) {
	if s := (Poly{1, 0, 2}).String(); s != "1 + 2s^2" {
		t.Errorf("String = %q", s)
	}
	if s := (Poly{0}).String(); s != "0" {
		t.Errorf("String = %q", s)
	}
	if s := (Poly{0, 3}).String(); s != "3s" {
		t.Errorf("String = %q", s)
	}
}
