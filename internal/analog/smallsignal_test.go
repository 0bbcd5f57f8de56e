package analog

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGmRoFromBias(t *testing.T) {
	if gm := GmFromBias(0.5e-3, 0.25); math.Abs(gm-4e-3) > 1e-12 {
		t.Errorf("gm = %v, want 4 mS", gm)
	}
	if gm := GmFromBias(1e-3, 0); gm != 0 {
		t.Errorf("gm with zero Vov = %v", gm)
	}
}

func TestQuickCommonSourceMatchesMNA(t *testing.T) {
	// Property: the closed-form CS gain equals the MNA solution for
	// random gm, RD, ro.
	f := func(gmRaw, rdRaw, roRaw uint16) bool {
		gm := (float64(gmRaw%100) + 1) * 1e-4
		rd := float64(rdRaw%20000) + 100
		ro := float64(roRaw%50000) + 1000
		m := MOSFET{Gm: gm, Ro: ro}
		want := CommonSourceGain(m, rd)
		sol, err := CommonSourceCircuit(m, rd).SolveDC()
		if err != nil {
			return false
		}
		got := real(sol.VoltageAt("out"))
		return math.Abs(got-want) < 1e-9*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSourceFollowerBounds(t *testing.T) {
	// Follower gain is always in (0, 1).
	for _, gm := range []float64{1e-4, 1e-3, 1e-2} {
		for _, rs := range []float64{100.0, 1000, 10000} {
			g := SourceFollowerGain(MOSFET{Gm: gm, Ro: math.Inf(1)}, rs)
			if g <= 0 || g >= 1 {
				t.Errorf("follower gain %v for gm=%v rs=%v", g, gm, rs)
			}
		}
	}
	// Large gm*RS approaches 1.
	g := SourceFollowerGain(MOSFET{Gm: 1, Ro: math.Inf(1)}, 1e6)
	if g < 0.999 {
		t.Errorf("large-loop follower gain %v", g)
	}
}

func TestCommonGatePositive(t *testing.T) {
	g := CommonGateGain(MOSFET{Gm: 2e-3, Ro: math.Inf(1)}, 5000)
	if math.Abs(g-10) > 1e-9 {
		t.Errorf("CG gain %v, want +10", g)
	}
}

func TestOpAmpGains(t *testing.T) {
	if g := InvertingOpAmpGain(1000, 10000); g != -10 {
		t.Errorf("inverting %v", g)
	}
	if g := NonInvertingOpAmpGain(1000, 9000); g != 10 {
		t.Errorf("non-inverting %v", g)
	}
	if g := InstrumentationAmpGain(50000, 1000); g != 101 {
		t.Errorf("in-amp %v", g)
	}
}

func TestADCHelpers(t *testing.T) {
	if n := FlashComparators(4); n != 15 {
		t.Errorf("flash comparators %d", n)
	}
	if n := FlashComparators(8); n != 255 {
		t.Errorf("flash comparators %d", n)
	}
	if n := SARCycles(12); n != 12 {
		t.Errorf("SAR cycles %d", n)
	}
	if g := PipelineResidueGain(2); g != 4 {
		t.Errorf("residue gain %v", g)
	}
}

func TestFeedbackRelations(t *testing.T) {
	// Large loop gain: closed loop -> 1/beta.
	acl := ClosedLoopGain(1e6, 0.01)
	if math.Abs(acl-100) > 0.2 {
		t.Errorf("closed loop %v, want ~100", acl)
	}
	if gbw := GainBandwidthProduct(1000, 1e3); gbw != 1e6 {
		t.Errorf("GBW %v", gbw)
	}
}

func TestQuickFeedbackDesensitivity(t *testing.T) {
	// Property: the closed-loop gain varies far less than the open-loop
	// gain (the point of negative feedback): a 10% change in A moves
	// A_cl by less than 10%/(1+A*beta) * 1.2.
	f := func(aRaw uint16) bool {
		a := float64(aRaw%10000) + 100
		const beta = 0.05
		acl1 := ClosedLoopGain(a, beta)
		acl2 := ClosedLoopGain(a*1.1, beta)
		relA := 0.1
		relACL := math.Abs(acl2-acl1) / acl1
		return relACL <= relA/(1+a*beta)*1.2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRCCutoff(t *testing.T) {
	fc := RCLowPassCutoffHz(1600, 100e-9)
	if math.Abs(fc-994.7) > 1 {
		t.Errorf("cutoff %v Hz", fc)
	}
}

func TestMirror(t *testing.T) {
	if i := MirrorOutputCurrent(100e-6, 2); math.Abs(i-200e-6) > 1e-12 {
		t.Errorf("mirror %v", i)
	}
}
