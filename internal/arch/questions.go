package arch

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/visual"
)

// Generate produces the 20 Architecture questions (7 multiple choice and
// 13 short answer, per Table I): 10 diagrams, 3 tables, 2 figures, 2
// structures, 2 mixed and 1 neural-net figure. Every golden answer is
// computed by the simulators in this package.
func Generate() []*dataset.Question {
	var qs []*dataset.Question
	add := func(q *dataset.Question) { qs = append(qs, q) }

	// Shared example program: the paper motivates exactly this style of
	// question ("how a bolded bypass path ... affects the cycles per
	// instruction").
	prog := []Instr{
		{Op: OpLoad, Dest: 1, Src1: 2},
		{Op: OpALU, Dest: 3, Src1: 1, Src2: 4},
		{Op: OpALU, Dest: 5, Src1: 3, Src2: 1},
		{Op: OpStore, Src1: 5, Src2: 2},
		{Op: OpALU, Dest: 6, Src1: 4, Src2: 2},
	}
	progLines := make([]string, len(prog))
	for i, ins := range prog {
		progLines[i] = ins.Format()
	}

	// --- Diagrams (ar01..ar10) ----------------------------------------

	// ar01: CPI with the bolded load->ALU bypass present.
	{
		r := SimulatePipeline(prog, ClassicFiveStage())
		scene := pipelineScene("5-stage pipeline with load-to-ALU bypass (bold)", progLines, true)
		add(dataset.NewSANumber("ar01", dataset.Architecture, "pipeline-cpi",
			"The figure shows a classic 5-stage pipeline whose bolded bypass path forwards "+
				"load data from the memory stage to the ALU input, alongside full ALU forwarding. "+
				"For the 5-instruction program listed in the figure, what is the CPI "+
				"(total cycles divided by instruction count, counting pipeline fill)?",
			scene, r.CPI(), "CPI", 0.02, 0.7))
	}
	// ar02: CPI with no forwarding at all.
	{
		r := SimulatePipeline(prog, PipelineConfig{Bypass: NoBypass(), BranchPenalty: 2})
		scene := pipelineScene("5-stage pipeline without forwarding", progLines, false)
		add(dataset.NewSANumber("ar02", dataset.Architecture, "pipeline-cpi-nofwd",
			"The pipeline in the figure has no forwarding paths; dependent instructions "+
				"stall until the writing instruction completes write-back (the register file "+
				"is written in the first half of the cycle and read in the second half). "+
				"For the program listed, what is the CPI including pipeline fill?",
			scene, r.CPI(), "CPI", 0.02, 0.75))
	}
	// ar03: load-use stall count with full forwarding (MC).
	{
		stalls := LoadUseStalls(FullBypass())
		scene := pipelineScene("Load-use hazard", []string{"lw r1, 0(r2)", "add r3, r1, r4"}, true)
		add(dataset.NewMCNumeric("ar03", dataset.Architecture, "load-use",
			"In the fully forwarded 5-stage pipeline of the figure, how many stall cycles "+
				"does the dependent add suffer immediately after the load?",
			scene, float64(stalls), "cycles", 0,
			fmt.Sprintf("%d cycle", stalls),
			[3]string{"0 cycles", "2 cycles", "3 cycles"}, 0.45))
	}
	// ar04: maximum frequency from stage latencies.
	{
		stages := []float64{0.8, 1.0, 1.5, 1.2, 0.9}
		const overhead = 0.1
		f := CriticalPathFrequency(stages, overhead)
		ann := make([]string, len(stages))
		names := []string{"IF", "ID", "EX", "MEM", "WB"}
		for i := range stages {
			ann[i] = fmt.Sprintf("%s: %.1f ns", names[i], stages[i])
		}
		ann = append(ann, fmt.Sprintf("latch overhead: %.1f ns", overhead))
		scene := visual.NewBlockDiagram(visual.KindDiagram, "Pipeline stage latencies", names, ann)
		add(dataset.NewSANumber("ar04", dataset.Architecture, "max-frequency",
			"The pipeline stages in the figure have the latencies annotated, and every "+
				"pipeline latch adds the overhead shown. What is the maximum clock frequency "+
				"of the machine in MHz?",
			scene, f, "MHz", 0.02, 0.55))
	}
	// ar05: total cycles with taken branches (static not-taken fetch).
	{
		bprog := []Instr{
			{Op: OpALU, Dest: 1, Src1: 2, Src2: 3},
			{Op: OpBranch, Src1: 1, Src2: 0, Taken: true},
			{Op: OpALU, Dest: 4, Src1: 2, Src2: 3},
			{Op: OpBranch, Src1: 4, Src2: 0, Taken: true},
			{Op: OpALU, Dest: 5, Src1: 2, Src2: 3},
		}
		r := SimulatePipeline(bprog, ClassicFiveStage())
		lines := make([]string, len(bprog))
		for i, ins := range bprog {
			lines[i] = ins.Format()
		}
		scene := pipelineScene("Pipeline with control hazards", lines, true)
		add(dataset.NewSANumber("ar05", dataset.Architecture, "branch-penalty",
			"The 5-stage pipeline in the figure resolves branches in EX, so each taken "+
				"branch costs two bubbles. Both branches in the listed program are taken. "+
				"How many total cycles does the program take, counting pipeline fill?",
			scene, float64(r.Cycles), "cycles", 0, 0.65))
	}
	// ar06: mesh diameter (MC).
	{
		d, err := Diameter(Mesh2D, 16)
		if err != nil {
			panic(err)
		}
		scene := visual.NewGridScene(visual.KindDiagram, "4x4 on-chip network", 4, 4,
			map[[2]int]string{{0, 0}: "A", {3, 3}: "B"})
		add(dataset.NewMCNumeric("ar06", dataset.Architecture, "mesh-diameter",
			"The figure shows a 4x4 mesh network-on-chip. What is the network diameter "+
				"(the largest minimal hop count between any node pair, such as the corners A and B)?",
			scene, float64(d), "hops", 0,
			fmt.Sprintf("%d hops", d), [3]string{"4 hops", "8 hops", "3 hops"}, 0.5))
	}
	// ar07: torus hop count.
	{
		hops := TorusHops(4, 4, 0, 0, 3, 3)
		scene := visual.NewGridScene(visual.KindDiagram, "4x4 torus with wraparound links", 4, 4,
			map[[2]int]string{{0, 0}: "SRC", {3, 3}: "DST"})
		add(dataset.NewSANumber("ar07", dataset.Architecture, "torus-hops",
			"The 4x4 torus in the figure has wraparound links in both dimensions. What is "+
				"the minimal hop count from the node marked SRC at (0,0) to DST at (3,3)?",
			scene, float64(hops), "hops", 0, 0.55))
	}
	// ar08: AMAT from a hierarchy diagram.
	{
		amat := AMAT(1, 100, 0.05)
		scene := visual.NewBlockDiagram(visual.KindDiagram, "Memory hierarchy",
			[]string{"CPU", "L1", "DRAM"},
			[]string{"L1 hit time: 1 cycle", "L1 miss rate: 5%", "miss penalty: 100 cycles"})
		add(dataset.NewSANumber("ar08", dataset.Architecture, "amat",
			"For the memory hierarchy in the figure with the hit time, miss rate and miss "+
				"penalty annotated, what is the average memory access time in cycles?",
			scene, amat, "cycles", 0.02, 0.5))
	}
	// ar09: out-of-order structure identification (MC).
	{
		scene := visual.NewBlockDiagram(visual.KindDiagram, "Out-of-order core",
			[]string{"FETCH", "DECODE", "X", "ISSUE Q", "ALUs", "ROB"},
			[]string{"block X maps architectural to physical registers"})
		add(dataset.NewMC("ar09", dataset.Architecture, "ooo-rename",
			"In the out-of-order machine of the figure, the block marked X rewrites each "+
				"instruction's architectural register names to physical registers to remove WAR "+
				"and WAW hazards. What is this structure called?",
			scene, "register rename table (register alias table)",
			[3]string{"reorder buffer", "reservation station", "load-store queue"}, 0.6))
	}
	// ar10: vector execution time.
	{
		const lanes, n, startup = 4, 64, 8
		cycles := startup + n/lanes
		scene := visual.NewBlockDiagram(visual.KindDiagram, "Vector unit",
			[]string{"VREG FILE", "LANE x4", "CHAIN"},
			[]string{"vector length: 64 elements", "lanes: 4", "startup: 8 cycles"})
		add(dataset.NewSANumber("ar10", dataset.Architecture, "vector-time",
			"The vector unit in the figure executes one vector instruction over the vector "+
				"length annotated, processing one element per lane per cycle after the startup "+
				"latency. How many cycles does the instruction take?",
			scene, float64(cycles), "cycles", 0, 0.6))
	}

	// --- Tables (ar11..ar13) --------------------------------------------

	// ar11: cache geometry.
	{
		cfg := CacheConfig{SizeBytes: 32 * 1024, BlockSize: 64, Ways: 4}
		sets := cfg.Sets()
		scene := visual.NewTableScene(visual.KindTable, "Cache parameters",
			[]string{"parameter", "value"},
			[][]string{
				{"capacity", "32 KiB"},
				{"block size", "64 B"},
				{"associativity", "4-way"},
			}, map[int]bool{1: true})
		add(dataset.NewSANumber("ar11", dataset.Architecture, "cache-sets",
			"For the cache described by the parameter table in the figure, how many sets "+
				"does the cache have?",
			scene, float64(sets), "sets", 0, 0.5))
	}
	// ar12: MESI final state (MC).
	{
		trace := []CoherenceTraceStep{
			{Core: 0, Write: false},
			{Core: 1, Write: false},
			{Core: 1, Write: true},
			{Core: 0, Write: false},
		}
		states, _, err := RunMESI(2, trace)
		if err != nil {
			panic(err)
		}
		rows := [][]string{
			{"1", "core 0", "read"},
			{"2", "core 1", "read"},
			{"3", "core 1", "write"},
			{"4", "core 0", "read"},
		}
		scene := visual.NewTableScene(visual.KindTable, "Access trace to one cache line",
			[]string{"step", "core", "op"}, rows, map[int]bool{1: true, 2: true})
		golden := states[1].String()
		others := mesiOthers(golden)
		add(dataset.NewMC("ar12", dataset.Architecture, "mesi",
			"Two cores with private caches keep one shared line coherent with the MESI "+
				"protocol. After the access trace listed in the figure, what is the state of the "+
				"line in core 1's cache?",
			scene, fmt.Sprintf("%s (in core 1)", golden), others, 0.7))
	}
	// ar13: virtual address translation.
	{
		cfg := VMConfig{PageSize: 4096}
		pt := map[uint64]uint64{0x0: 0x2, 0x1: 0x7, 0x2: 0x4, 0x3: 0x0}
		va := uint64(0x1abc)
		pa, err := cfg.Translate(va, pt)
		if err != nil {
			panic(err)
		}
		scene := visual.NewTableScene(visual.KindTable, "Page table (4 KiB pages)",
			[]string{"VPN", "PFN"},
			[][]string{{"0x0", "0x2"}, {"0x1", "0x7"}, {"0x2", "0x4"}, {"0x3", "0x0"}},
			map[int]bool{0: true, 1: true})
		add(dataset.NewSANumber("ar13", dataset.Architecture, "vm-translate",
			fmt.Sprintf("Using the page table in the figure (4 KiB pages, 16-bit virtual "+
				"addresses), translate the virtual address 0x%X. Give the physical address as a "+
				"decimal number.", va),
			scene, float64(pa), "", 0, 0.65))
	}

	// --- Figures (ar14, ar15) --------------------------------------------

	// ar14: 2-bit predictor mispredictions on a loop.
	{
		outcomes := LoopOutcomes(4, 3) // 4-iteration loop run 3 times
		miss := RunPredictor(NewTwoBit(4), 0x40, outcomes)
		scene := visual.NewAnnotatedFigure(visual.KindFigure, "2-bit saturating counter FSM",
			"states: 00 01 10 11; taken moves right, not-taken moves left",
			[]string{"initial state: 01 (weakly not-taken)",
				"branch: loop of 4 iterations, run 3 times (TTTN repeated)"})
		add(dataset.NewSANumber("ar14", dataset.Architecture, "2bit-predictor",
			"The figure shows the FSM of a 2-bit saturating-counter branch predictor and "+
				"the outcome pattern of a loop branch. Starting from the weakly not-taken state, "+
				"how many mispredictions occur over the whole 12-outcome stream?",
			scene, float64(miss), "mispredictions", 0, 0.75))
	}
	// ar15: endianness (MC).
	{
		scene := visual.NewAnnotatedFigure(visual.KindFigure, "Memory bytes at address 0x100",
			"0x100: 0x78, 0x101: 0x56, 0x102: 0x34, 0x103: 0x12",
			[]string{"a 32-bit word is loaded from address 0x100"})
		add(dataset.NewMC("ar15", dataset.Architecture, "endianness",
			"The figure shows four bytes stored in memory starting at address 0x100. On a "+
				"little-endian machine, what 32-bit value does a word load from 0x100 return?",
			scene, "0x12345678",
			[3]string{"0x78563412", "0x56781234", "0x34127856"}, 0.5))
	}

	// --- Structures (ar16, ar17) ------------------------------------------

	// ar16: TLB hits over a page-touch pattern.
	{
		tlb := NewTLB(2)
		pt := map[uint64]uint64{0: 10, 1: 11, 2: 12}
		pattern := []uint64{0, 1, 0, 2, 0, 1}
		hits := 0
		for _, vpn := range pattern {
			if _, hit, err := tlb.Lookup(vpn, pt); err != nil {
				panic(err)
			} else if hit {
				hits++
			}
		}
		scene := visual.NewAnnotatedFigure(visual.KindStructure, "2-entry fully associative TLB",
			"two tag/PFN slots with LRU replacement",
			[]string{"page reference sequence: 0, 1, 0, 2, 0, 1"})
		add(dataset.NewSANumber("ar16", dataset.Architecture, "tlb-hits",
			"The 2-entry fully associative TLB in the figure uses LRU replacement and "+
				"starts empty. For the page reference sequence annotated, how many lookups hit?",
			scene, float64(hits), "hits", 0, 0.7))
	}
	// ar17: direct-mapped cache misses (MC).
	{
		cache, err := NewCache(CacheConfig{SizeBytes: 256, BlockSize: 16, Ways: 1, Policy: LRU})
		if err != nil {
			panic(err)
		}
		trace := []uint64{0x00, 0x10, 0x100, 0x00, 0x110, 0x10}
		_, misses := cache.Run(trace)
		scene := visual.NewAnnotatedFigure(visual.KindStructure, "Direct-mapped cache",
			"256 B, 16 B blocks, 16 sets",
			[]string{"access sequence (byte addresses): 0x00, 0x10, 0x100, 0x00, 0x110, 0x10"})
		add(dataset.NewMCNumeric("ar17", dataset.Architecture, "cache-misses",
			"The direct-mapped cache in the figure starts empty and services the byte-address "+
				"sequence annotated. How many of the six accesses miss?",
			scene, float64(misses), "misses", 0,
			fmt.Sprintf("%d misses", misses),
			[3]string{"3 misses", "4 misses", fmt.Sprintf("%d misses", misses+1)}, 0.7))
	}

	// --- Mixed (ar18, ar19) -------------------------------------------------

	// ar18: pipeline speedup.
	{
		// Single-cycle time = sum of stages; pipelined cycle = max stage.
		stages := []float64{1, 1, 1.5, 1, 1}
		sum := 0.0
		worst := 0.0
		for _, s := range stages {
			sum += s
			if s > worst {
				worst = s
			}
		}
		speedup := sum / worst
		scene := visual.NewTableScene(visual.KindMixed, "Pipelining a single-cycle datapath",
			[]string{"stage", "latency (ns)"},
			[][]string{{"IF", "1"}, {"ID", "1"}, {"EX", "1.5"}, {"MEM", "1"}, {"WB", "1"}},
			map[int]bool{1: true})
		add(dataset.NewSANumber("ar18", dataset.Architecture, "pipeline-speedup",
			"A single-cycle datapath with the stage latencies tabulated in the figure is "+
				"pipelined into five stages (ignore latch overhead). On a long instruction "+
				"stream with no hazards, what asymptotic speedup does pipelining deliver?",
			scene, speedup, "x", 0.02, 0.6))
	}
	// ar19: effective CPI with memory stalls.
	{
		base, missRate, penalty, memPerInstr := 1.0, 0.04, 50.0, 0.3
		cpi := base + memPerInstr*missRate*penalty
		scene := visual.NewTableScene(visual.KindMixed, "Core and cache parameters",
			[]string{"parameter", "value"},
			[][]string{
				{"base CPI", "1.0"},
				{"loads+stores per instr", "0.3"},
				{"miss rate", "4%"},
				{"miss penalty", "50 cycles"},
			}, map[int]bool{1: true})
		add(dataset.NewSANumber("ar19", dataset.Architecture, "effective-cpi",
			"Using the core and cache parameters tabulated in the figure, what is the "+
				"effective CPI including memory stall cycles?",
			scene, cpi, "CPI", 0.02, 0.6))
	}

	// --- Neural nets (ar20) --------------------------------------------------

	{
		const n = 8
		macs := n * n
		scene := visual.NewGridScene(visual.KindNeuralNets, "Systolic array accelerator", 4, 4, nil)
		scene.Add(visual.Element{
			Type: visual.ElemValue, Name: "dims", Label: "array size: 8 x 8 PEs",
			X: 80, Y: 320, Salience: 0.65, Critical: true,
		})
		add(dataset.NewMCNumeric("ar20", dataset.Architecture, "systolic",
			"The figure sketches a weight-stationary systolic array for neural-network "+
				"inference with the dimensions annotated. How many multiply-accumulate units "+
				"does the array contain?",
			scene, float64(macs), "MACs", 0,
			fmt.Sprintf("%d MACs", macs),
			[3]string{"8 MACs", "16 MACs", "128 MACs"}, 0.5))
	}

	if len(qs) != 20 {
		panic(fmt.Sprintf("arch: generated %d questions, want 20", len(qs)))
	}
	return qs
}

// pipelineScene draws a 5-stage pipeline with the program listing and an
// optional bolded bypass arc — the figure style the paper's Architecture
// section describes.
func pipelineScene(title string, program []string, bypass bool) *visual.Scene {
	s := visual.NewBlockDiagram(visual.KindDiagram, title,
		[]string{"IF", "ID", "EX", "MEM", "WB"}, nil)
	if bypass {
		// Bold arc from MEM output back to EX input.
		s.Add(visual.Element{
			Type: visual.ElemArrow, Name: "bypass", Label: "bypass",
			X: 60 + 3*150 + 50, Y: 170, X2: 60 + 2*150 + 50, Y2: 170,
			Salience: 0.8, Critical: true,
		})
	}
	for i, line := range program {
		s.Add(visual.Element{
			Type: visual.ElemLabel, Name: fmt.Sprintf("prog%d", i), Label: line,
			X: 70, Y: 280 + float64(i)*22, Salience: 0.7, Critical: true,
		})
	}
	return s
}

func mesiOthers(golden string) [3]string {
	var out [3]string
	i := 0
	for _, s := range []string{"M", "E", "S", "I"} {
		if s != golden && i < 3 {
			out[i] = fmt.Sprintf("%s (in core 1)", s)
			i++
		}
	}
	return out
}
