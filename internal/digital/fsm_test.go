package digital

import (
	"testing"
)

func TestNextStateTables(t *testing.T) {
	// Exhaustive characteristic tables for all four flip-flop kinds.
	type row struct {
		q, a, b, want bool
		invalid       bool
	}
	tables := map[FlipFlopKind][]row{
		FFD: {
			{q: false, a: false, want: false},
			{q: false, a: true, want: true},
			{q: true, a: false, want: false},
			{q: true, a: true, want: true},
		},
		FFT: {
			{q: false, a: false, want: false},
			{q: false, a: true, want: true},
			{q: true, a: false, want: true},
			{q: true, a: true, want: false},
		},
		FFSR: {
			{q: false, a: false, b: false, want: false},
			{q: true, a: false, b: false, want: true},
			{q: false, a: true, b: false, want: true},
			{q: true, a: false, b: true, want: false},
			{q: false, a: true, b: true, invalid: true},
		},
		FFJK: {
			{q: false, a: false, b: false, want: false},
			{q: true, a: false, b: false, want: true},
			{q: false, a: true, b: false, want: true},
			{q: true, a: false, b: true, want: false},
			{q: false, a: true, b: true, want: true}, // toggle
			{q: true, a: true, b: true, want: false}, // toggle
		},
	}
	for kind, rows := range tables {
		for _, r := range rows {
			got, err := NextState(kind, r.q, r.a, r.b)
			if r.invalid {
				if err == nil {
					t.Errorf("%s q=%v a=%v b=%v: want error", kind, r.q, r.a, r.b)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			if got != r.want {
				t.Errorf("%s q=%v a=%v b=%v = %v, want %v", kind, r.q, r.a, r.b, got, r.want)
			}
		}
	}
}

func TestCounter(t *testing.T) {
	seq := Counter(3, 5, 4)
	want := []int{5, 6, 7, 0, 1}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("Counter = %v, want %v", seq, want)
		}
	}
}

func TestRingCounterPeriod(t *testing.T) {
	const bits = 4
	seq := RingCounter(bits, bits)
	if seq[0] != seq[bits] {
		t.Errorf("ring counter period != %d: %v", bits, seq)
	}
	// Exactly one hot bit in every state.
	for i, s := range seq {
		if popcount(s) != 1 {
			t.Errorf("state %d = %04b has %d hot bits", i, s, popcount(s))
		}
	}
}

func TestJohnsonCounterPeriod(t *testing.T) {
	const bits = 3
	seq := JohnsonCounter(bits, 2*bits)
	if seq[0] != seq[2*bits] {
		t.Errorf("johnson counter period != %d: %v", 2*bits, seq)
	}
	// All 2n states distinct.
	seen := make(map[int]bool)
	for _, s := range seq[:2*bits] {
		if seen[s] {
			t.Errorf("repeated state %03b before full period: %v", s, seq)
		}
		seen[s] = true
	}
}

func TestStateTableStep(t *testing.T) {
	// A simple 2-state Mealy detector: output 1 when input 1 seen in
	// state 1.
	st := &StateTable{
		NumStates: 2,
		Next:      [][2]int{{0, 1}, {0, 1}},
		Output:    [][2]int{{0, 0}, {0, 1}},
	}
	states, outputs, err := st.Step(0, []int{1, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	wantStates := []int{0, 1, 1, 0, 1}
	wantOut := []int{0, 1, 0, 0}
	for i := range wantStates {
		if states[i] != wantStates[i] {
			t.Fatalf("states %v, want %v", states, wantStates)
		}
	}
	for i := range wantOut {
		if outputs[i] != wantOut[i] {
			t.Fatalf("outputs %v, want %v", outputs, wantOut)
		}
	}
}

func TestStateTableStepErrors(t *testing.T) {
	st := &StateTable{NumStates: 1, Next: [][2]int{{0, 0}}, MooreOut: []int{1}}
	if _, _, err := st.Step(5, []int{0}); err == nil {
		t.Error("out-of-range state accepted")
	}
	if _, _, err := st.Step(0, []int{2}); err == nil {
		t.Error("out-of-range input accepted")
	}
	_, outputs, err := st.Step(0, []int{0, 0})
	if err != nil || len(outputs) != 2 || outputs[0] != 1 {
		t.Errorf("moore outputs %v err %v", outputs, err)
	}
}
