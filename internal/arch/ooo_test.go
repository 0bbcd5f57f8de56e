package arch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOoOIndependentStream(t *testing.T) {
	// Eight independent ALU ops on a 2-wide core with 2 ALUs: 4 cycles.
	prog := make([]Instr, 8)
	for i := range prog {
		prog[i] = Instr{Op: OpALU, Dest: i + 1, Src1: 20}
	}
	res, err := SimulateOoO(prog, DefaultOoO())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 4 {
		t.Errorf("8 independent ops, 2-wide: %d cycles, want 4", res.Cycles)
	}
}

func TestOoODependencyChain(t *testing.T) {
	// A pure RAW chain serialises completely regardless of width.
	prog := []Instr{
		{Op: OpALU, Dest: 1, Src1: 9},
		{Op: OpALU, Dest: 2, Src1: 1},
		{Op: OpALU, Dest: 3, Src1: 2},
		{Op: OpALU, Dest: 4, Src1: 3},
	}
	res, err := SimulateOoO(prog, DefaultOoO())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 4 {
		t.Errorf("chain of 4: %d cycles, want 4", res.Cycles)
	}
}

func TestOoOHidesLoadLatency(t *testing.T) {
	// A load (3 cycles) plus independent ALU work: the ALU work fills
	// the shadow of the load.
	prog := []Instr{
		{Op: OpLoad, Dest: 1, Src1: 9},
		{Op: OpALU, Dest: 2, Src1: 8},
		{Op: OpALU, Dest: 3, Src1: 8},
		{Op: OpALU, Dest: 4, Src1: 1}, // consumer of the load
	}
	res, err := SimulateOoO(prog, DefaultOoO())
	if err != nil {
		t.Fatal(err)
	}
	// Load issues cycle 1, completes 3; consumer issues cycle 4.
	if res.IssueCycle[3] != 4 {
		t.Errorf("load consumer issued at %d, want 4", res.IssueCycle[3])
	}
	// The two independent ALU ops issued before the load finished.
	if res.IssueCycle[1] > 2 || res.IssueCycle[2] > 2 {
		t.Errorf("independent work not hoisted: issue cycles %v", res.IssueCycle)
	}
}

func TestOoORenamingIgnoresWAW(t *testing.T) {
	// Two writes to r1 with no reads between them: renaming lets them
	// proceed in parallel (WAW is not a dependency).
	prog := []Instr{
		{Op: OpALU, Dest: 1, Src1: 8},
		{Op: OpALU, Dest: 1, Src1: 9},
	}
	res, err := SimulateOoO(prog, DefaultOoO())
	if err != nil {
		t.Fatal(err)
	}
	if res.IssueCycle[0] != 1 || res.IssueCycle[1] != 1 {
		t.Errorf("WAW pair issued at %v, want both cycle 1", res.IssueCycle)
	}
}

func TestOoOStructuralHazard(t *testing.T) {
	// Two loads with a single memory unit serialise on the unit.
	prog := []Instr{
		{Op: OpLoad, Dest: 1, Src1: 8},
		{Op: OpLoad, Dest: 2, Src1: 9},
	}
	res, err := SimulateOoO(prog, DefaultOoO())
	if err != nil {
		t.Fatal(err)
	}
	if res.IssueCycle[1] != res.CompleteCycle[0]+1 {
		t.Errorf("second load issued at %d, first completes %d",
			res.IssueCycle[1], res.CompleteCycle[0])
	}
}

func TestOoOConfigValidation(t *testing.T) {
	prog := []Instr{{Op: OpALU, Dest: 1}}
	bad := DefaultOoO()
	bad.IssueWidth = 0
	if _, err := SimulateOoO(prog, bad); err == nil {
		t.Error("zero issue width accepted")
	}
	bad = DefaultOoO()
	bad.Units[FUALU] = 0
	if _, err := SimulateOoO(prog, bad); err == nil {
		t.Error("zero ALU count accepted")
	}
	if _, err := InOrderBaselineCycles(prog, bad); err == nil {
		t.Error("in-order baseline accepted bad config")
	}
}

func TestOoOEmptyProgram(t *testing.T) {
	res, err := SimulateOoO(nil, DefaultOoO())
	if err != nil || res.Cycles != 0 {
		t.Errorf("empty program: %v %v", res, err)
	}
	c, err := InOrderBaselineCycles(nil, DefaultOoO())
	if err != nil || c != 0 {
		t.Errorf("empty in-order baseline: %d %v", c, err)
	}
}

func randomOoOProgram(r *rand.Rand) []Instr {
	n := 2 + r.Intn(14)
	prog := make([]Instr, n)
	for i := range prog {
		op := []OpClass{OpALU, OpALU, OpLoad, OpStore}[r.Intn(4)]
		prog[i] = Instr{Op: op, Dest: r.Intn(8), Src1: r.Intn(8), Src2: r.Intn(8)}
		if op == OpStore {
			prog[i].Dest = 0
		}
	}
	return prog
}

func TestQuickOoONeverSlowerThanInOrder(t *testing.T) {
	// Property: dataflow scheduling with a window never takes longer
	// than the in-order single-issue baseline on the same machine.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		prog := randomOoOProgram(r)
		cfg := DefaultOoO()
		ooo, err := SimulateOoO(prog, cfg)
		if err != nil {
			return false
		}
		inOrder, err := InOrderBaselineCycles(prog, cfg)
		if err != nil {
			return false
		}
		return ooo.Cycles <= inOrder
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickOoORespectsRAW(t *testing.T) {
	// Property: no instruction issues before its RAW producers complete.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		prog := randomOoOProgram(r)
		res, err := SimulateOoO(prog, DefaultOoO())
		if err != nil {
			return false
		}
		lastWriter := map[int]int{}
		for i, ins := range prog {
			for _, src := range []int{ins.Src1, ins.Src2} {
				if src == 0 {
					continue
				}
				if w, ok := lastWriter[src]; ok {
					if res.IssueCycle[i] <= res.CompleteCycle[w] {
						return false
					}
				}
			}
			if ins.Dest != 0 {
				lastWriter[ins.Dest] = i
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickWiderNeverSlower(t *testing.T) {
	// Property: increasing issue width never increases cycles.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		prog := randomOoOProgram(r)
		narrow := DefaultOoO()
		narrow.IssueWidth = 1
		wide := DefaultOoO()
		wide.IssueWidth = 4
		a, err1 := SimulateOoO(prog, narrow)
		b, err2 := SimulateOoO(prog, wide)
		if err1 != nil || err2 != nil {
			return false
		}
		return b.Cycles <= a.Cycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
