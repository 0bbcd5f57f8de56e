package digital

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestGateEval(t *testing.T) {
	cases := []struct {
		kind GateKind
		in   []bool
		want bool
	}{
		{GateAnd, []bool{true, true}, true},
		{GateAnd, []bool{true, false}, false},
		{GateOr, []bool{false, false}, false},
		{GateOr, []bool{false, true}, true},
		{GateNand, []bool{true, true}, false},
		{GateNor, []bool{false, false}, true},
		{GateXor, []bool{true, false}, true},
		{GateXor, []bool{true, true}, false},
		{GateXor, []bool{true, true, true}, true},
		{GateXnor, []bool{true, false}, false},
		{GateNot, []bool{true}, false},
		{GateBuf, []bool{true}, true},
		{GateAnd, []bool{true, true, true, false}, false},
	}
	for _, c := range cases {
		g := &Gate{Kind: c.kind}
		if got := g.Eval(c.in); got != c.want {
			t.Errorf("%s%v = %v, want %v", c.kind, c.in, got, c.want)
		}
	}
}

func TestHalfAdderTruthTable(t *testing.T) {
	n := halfAdderNetlist()
	for _, c := range []struct {
		a, b, sum, carry bool
	}{
		{false, false, false, false},
		{false, true, true, false},
		{true, false, true, false},
		{true, true, false, true},
	} {
		v, err := n.Eval(map[string]bool{"A": c.a, "B": c.b})
		if err != nil {
			t.Fatal(err)
		}
		if v["S"] != c.sum || v["Cout"] != c.carry {
			t.Errorf("half adder A=%v B=%v: S=%v Cout=%v", c.a, c.b, v["S"], v["Cout"])
		}
	}
}

func TestFullAdderMatchesArithmetic(t *testing.T) {
	n := fullAdderNetlist()
	for m := 0; m < 8; m++ {
		a, b, cin := m&4 != 0, m&2 != 0, m&1 != 0
		v, err := n.Eval(map[string]bool{"A": a, "B": b, "Cin": cin})
		if err != nil {
			t.Fatal(err)
		}
		wantSum, wantCarry := fullAdder(a, b, cin)
		if v["S"] != wantSum || v["Cout"] != wantCarry {
			t.Errorf("full adder %v %v %v: got S=%v C=%v want S=%v C=%v",
				a, b, cin, v["S"], v["Cout"], wantSum, wantCarry)
		}
	}
}

func TestNetlistTruthTable(t *testing.T) {
	n := NewNetlist().
		AddGate(GateAnd, "G1", "n1", "A", "B").
		AddGate(GateOr, "G2", "F", "n1", "C")
	tt, err := n.TruthTable("F")
	if err != nil {
		t.Fatal(err)
	}
	want := NewTruthTable(MustParse("AB + C"), []string{"A", "B", "C"})
	if !reflect.DeepEqual(tt, want) {
		t.Errorf("netlist truth table %+v disagrees with AB + C", tt)
	}
}

func TestNetlistDepth(t *testing.T) {
	n := NewNetlist().
		AddGate(GateAnd, "G1", "n1", "A", "B").
		AddGate(GateOr, "G2", "n2", "n1", "C").
		AddGate(GateXor, "G3", "F", "n2", "n1")
	d, err := n.Depth("F")
	if err != nil {
		t.Fatal(err)
	}
	if d != 3 {
		t.Errorf("depth = %d, want 3", d)
	}
	if d, _ := n.Depth("A"); d != 0 {
		t.Errorf("input depth = %d, want 0", d)
	}
}

func TestNetlistCycleDetection(t *testing.T) {
	n := NewNetlist().
		AddGate(GateAnd, "G1", "x", "y", "A").
		AddGate(GateOr, "G2", "y", "x", "B")
	if _, err := n.Eval(map[string]bool{"A": true, "B": true}); err == nil {
		t.Error("combinational cycle not detected by Eval")
	}
	if _, err := n.Depth("x"); err == nil {
		t.Error("combinational cycle not detected by Depth")
	}
}

func TestPrimaryInputs(t *testing.T) {
	n := NewNetlist().
		AddGate(GateAnd, "G1", "n1", "B", "A").
		AddGate(GateOr, "G2", "F", "n1", "C")
	ins := n.PrimaryInputs()
	want := []string{"A", "B", "C"}
	if len(ins) != len(want) {
		t.Fatalf("inputs %v, want %v", ins, want)
	}
	for i := range want {
		if ins[i] != want[i] {
			t.Fatalf("inputs %v, want %v", ins, want)
		}
	}
}

func TestQuickNandNandEquivalence(t *testing.T) {
	// Property: the NAND-NAND construction implements the SOP it was
	// built from, for random minterm sets.
	vars := []string{"A", "B", "C"}
	f := func(raw uint8) bool {
		var minterms []int
		for m := 0; m < 8; m++ {
			if raw&(1<<m) != 0 {
				minterms = append(minterms, m)
			}
		}
		if len(minterms) == 0 || len(minterms) == 8 {
			return true // constant functions are not two-level circuits
		}
		sop := Minimize(vars, minterms, nil)
		if _, isConst := sop.(*Const); isConst {
			return true
		}
		n := nandNandNetlist(sop, vars)
		tt, err := n.TruthTable("F")
		if err != nil {
			return false
		}
		want := NewTruthTable(sop, tt.Vars)
		return reflect.DeepEqual(tt, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestTruthTableFormat(t *testing.T) {
	tt := FromMinterms([]string{"A", "B"}, []int{1, 2})
	if got := tt.Minterms(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("minterms %v", got)
	}
}
