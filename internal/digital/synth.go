package digital

import "fmt"

// SynthesizedFSM is the result of classical sequential synthesis: one
// minimised D-flip-flop input equation per state bit plus the output
// equation, over variables named Q0..Qk-1 (state, Q0 = LSB) and X (the
// input). This is the full textbook flow behind the benchmark's
// state-table questions: encode states, derive excitation tables,
// minimise with Quine–McCluskey.
type SynthesizedFSM struct {
	StateBits int
	// Next[i] drives D of state bit i.
	Next []Expr
	// Output is the Mealy output equation (nil when the table has no
	// outputs).
	Output Expr
	// Vars is the variable order shared by all equations:
	// [Qk-1, ..., Q0, X].
	Vars []string
}

// SynthesizeDFF performs D-flip-flop synthesis of a (Mealy) state table
// with a one-bit input, using the natural binary state encoding
// (state s -> bits of s). Unused state codes become don't-cares, so the
// minimiser exploits them exactly as the hand method does.
func SynthesizeDFF(st *StateTable) (*SynthesizedFSM, error) {
	if st.NumStates < 2 {
		return nil, fmt.Errorf("digital: need at least 2 states, got %d", st.NumStates)
	}
	if len(st.Next) != st.NumStates {
		return nil, fmt.Errorf("digital: next-state table has %d rows, want %d", len(st.Next), st.NumStates)
	}
	bits := 1
	for 1<<bits < st.NumStates {
		bits++
	}
	// Variable order: Q(bits-1) .. Q0, X — MSB first to match the
	// TruthTable convention.
	vars := make([]string, 0, bits+1)
	for i := bits - 1; i >= 0; i-- {
		vars = append(vars, fmt.Sprintf("Q%d", i))
	}
	vars = append(vars, "X")

	size := 1 << (bits + 1)
	var dontCares []int
	onSets := make([][]int, bits)
	var outOn []int
	for m := 0; m < size; m++ {
		state := m >> 1
		input := m & 1
		if state >= st.NumStates {
			dontCares = append(dontCares, m)
			continue
		}
		next := st.Next[state][input]
		if next < 0 || next >= st.NumStates {
			return nil, fmt.Errorf("digital: state %d input %d transitions to invalid state %d",
				state, input, next)
		}
		for b := 0; b < bits; b++ {
			if next&(1<<b) != 0 {
				onSets[b] = append(onSets[b], m)
			}
		}
		if st.Output != nil && st.Output[state][input] != 0 {
			outOn = append(outOn, m)
		}
	}
	fsm := &SynthesizedFSM{StateBits: bits, Vars: vars, Next: make([]Expr, bits)}
	for b := 0; b < bits; b++ {
		fsm.Next[b] = Minimize(vars, onSets[b], dontCares)
	}
	if st.Output != nil {
		fsm.Output = Minimize(vars, outOn, dontCares)
	}
	return fsm, nil
}

// Equations renders the synthesis result as the textbook equation list.
func (f *SynthesizedFSM) Equations() []string {
	out := make([]string, 0, f.StateBits+1)
	for b := f.StateBits - 1; b >= 0; b-- {
		out = append(out, fmt.Sprintf("D%d = %s", b, f.Next[b].String()))
	}
	if f.Output != nil {
		out = append(out, "Z = "+f.Output.String())
	}
	return out
}

// SequenceDetectorTable builds the classic overlapping sequence-detector
// Mealy machine for a binary pattern: the machine outputs 1 when the
// last len(pattern) inputs equal the pattern. States track the longest
// matched prefix.
func SequenceDetectorTable(pattern []int) (*StateTable, error) {
	n := len(pattern)
	if n < 1 {
		return nil, fmt.Errorf("digital: empty pattern")
	}
	for _, b := range pattern {
		if b != 0 && b != 1 {
			return nil, fmt.Errorf("digital: pattern bits must be 0/1")
		}
	}
	st := &StateTable{
		NumStates: n,
		Next:      make([][2]int, n),
		Output:    make([][2]int, n),
	}
	// nextPrefix(s, bit): longest prefix of pattern that is a suffix of
	// (matched prefix of length s) + bit.
	nextPrefix := func(s, bit int) int {
		seq := append(append([]int{}, pattern[:s]...), bit)
		for l := min(n, len(seq)); l > 0; l-- {
			match := true
			for i := 0; i < l; i++ {
				if seq[len(seq)-l+i] != pattern[i] {
					match = false
					break
				}
			}
			if match {
				if l == n {
					// Full match: overlap state is the longest proper
					// prefix that is also a suffix.
					continue
				}
				return l
			}
		}
		return 0
	}
	for s := 0; s < n; s++ {
		for bit := 0; bit <= 1; bit++ {
			if s == n-1 && bit == pattern[n-1] {
				st.Output[s][bit] = 1
			}
			st.Next[s][bit] = nextPrefix(s, bit)
		}
	}
	return st, nil
}
