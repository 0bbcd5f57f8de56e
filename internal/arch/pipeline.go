// Package arch implements the computer-architecture substrate: a 5-stage
// in-order pipeline simulator with configurable bypass paths, branch
// predictors, a set-associative cache simulator, the MESI coherence
// state machine, virtual-memory translation and network-on-chip topology
// analysis. The Architecture questions of the benchmark are generated
// from these engines.
package arch

import "fmt"

// OpClass classifies instructions the pipeline models.
type OpClass int

// Instruction classes.
const (
	OpALU OpClass = iota
	OpLoad
	OpStore
	OpBranch
	OpNop
)

// Instr is one instruction in a pipelined program: a destination register
// (0 = none) and up to two source registers (0 = unused).
type Instr struct {
	Op   OpClass
	Dest int
	Src1 int
	Src2 int
	// Taken applies to branches and drives the flush penalty.
	Taken bool
	Label string
}

// BypassConfig selects which forwarding paths exist in the pipeline.
// With all false the pipeline resolves hazards purely by stalling until
// write-back; register file write-before-read in the same cycle is
// always assumed (a value written in WB is readable in ID that cycle).
type BypassConfig struct {
	EXtoEX  bool // ALU result forwarded from EX/MEM latch to EX input
	MEMtoEX bool // load data (or older ALU result) forwarded from MEM/WB latch to EX input
}

// FullBypass returns the standard fully forwarded configuration.
func FullBypass() BypassConfig { return BypassConfig{EXtoEX: true, MEMtoEX: true} }

// NoBypass returns the stall-only configuration.
func NoBypass() BypassConfig { return BypassConfig{} }

// PipelineConfig describes the simulated machine.
type PipelineConfig struct {
	Bypass BypassConfig
	// BranchPenalty is the number of bubbles after a taken branch
	// (branches resolved in EX give 2 in a 5-stage machine).
	BranchPenalty int
}

// ClassicFiveStage is the default MIPS-style configuration: full
// forwarding and branches resolved in EX (2-cycle taken penalty).
func ClassicFiveStage() PipelineConfig {
	return PipelineConfig{Bypass: FullBypass(), BranchPenalty: 2}
}

// PipelineResult summarises one simulation.
type PipelineResult struct {
	Instructions int
	Cycles       int
	Stalls       int
	FlushBubbles int
	// IssueCycle[i] is the cycle (1-based) instruction i enters EX.
	IssueCycle []int
}

// CPI returns cycles per instruction.
func (r PipelineResult) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

// SimulatePipeline runs the program through a 5-stage in-order pipeline
// (IF ID EX MEM WB) and returns the cycle accounting. The model:
//
//   - one instruction issues to EX per cycle in program order;
//   - an instruction needing a source produced by an earlier instruction
//     stalls in ID until a bypass path or the register file provides it;
//   - ALU results are available at end of EX, load data at end of MEM;
//   - a register-file write in WB is readable by ID in the same cycle;
//   - taken branches insert BranchPenalty bubbles.
//
// This is the standard hazard model graduate pipeline questions use, so
// the simulator's CPI matches hand analysis instruction by instruction.
func SimulatePipeline(prog []Instr, cfg PipelineConfig) PipelineResult {
	res := PipelineResult{Instructions: len(prog)}
	if len(prog) == 0 {
		return res
	}
	res.IssueCycle = make([]int, len(prog))
	// readyEX[r]: earliest cycle in which value of r can be consumed by
	// EX via some path. Initially 0 (register file has the value).
	readyBypass := make(map[int]int) // earliest EX-consume cycle via bypass
	readyRF := make(map[int]int)     // earliest EX-consume cycle via register file only
	exCycle := 0                     // EX cycle of the previous instruction
	for i, ins := range prog {
		earliest := exCycle + 1
		for _, src := range []int{ins.Src1, ins.Src2} {
			if src == 0 {
				continue
			}
			need := 0
			if c, ok := readyBypass[src]; ok && cfg.bypassUsable() {
				need = c
			} else if c, ok := readyRF[src]; ok {
				need = c
			}
			if need > earliest {
				earliest = need
			}
		}
		stall := earliest - (exCycle + 1)
		res.Stalls += stall
		exCycle = earliest
		res.IssueCycle[i] = exCycle
		// Publish this instruction's result availability.
		if ins.Dest != 0 {
			switch ins.Op {
			case OpALU:
				if cfg.Bypass.EXtoEX {
					readyBypass[ins.Dest] = exCycle + 1
				} else if cfg.Bypass.MEMtoEX {
					readyBypass[ins.Dest] = exCycle + 2
				} else {
					delete(readyBypass, ins.Dest)
				}
				// Register file path: WB at exCycle+3 readable same cycle
				// in ID, so EX consume at exCycle+3... ID in cycle c reads,
				// EX in c+1? Model: value written in WB (cycle exCycle+3)
				// is readable in ID that cycle, consumed in EX the next.
				readyRF[ins.Dest] = exCycle + 3
			case OpLoad:
				if cfg.Bypass.MEMtoEX {
					readyBypass[ins.Dest] = exCycle + 2
				} else {
					delete(readyBypass, ins.Dest)
				}
				readyRF[ins.Dest] = exCycle + 3
			default:
				readyRF[ins.Dest] = exCycle + 3
				delete(readyBypass, ins.Dest)
			}
		}
		if ins.Op == OpBranch && ins.Taken {
			res.FlushBubbles += cfg.BranchPenalty
			exCycle += cfg.BranchPenalty
		}
	}
	// Total cycles: last EX cycle + MEM + WB + the 2 front-end fill
	// cycles (IF, ID of the first instruction).
	res.Cycles = exCycle + 2 + 2
	return res
}

func (c PipelineConfig) bypassUsable() bool {
	return c.Bypass.EXtoEX || c.Bypass.MEMtoEX
}

// LoadUseStalls returns the stall cycles a dependent instruction incurs
// immediately after a load under the configuration: the classic
// load-use hazard (1 with full forwarding, 2 with none).
func LoadUseStalls(cfg BypassConfig) int {
	prog := []Instr{
		{Op: OpLoad, Dest: 1},
		{Op: OpALU, Dest: 2, Src1: 1},
	}
	r := SimulatePipeline(prog, PipelineConfig{Bypass: cfg})
	return r.Stalls
}

// CriticalPathFrequency converts per-stage latencies (ns) into the
// maximum clock frequency (MHz): the slowest stage plus overhead sets
// the cycle time.
func CriticalPathFrequency(stageNS []float64, overheadNS float64) float64 {
	worst := 0.0
	for _, s := range stageNS {
		if s > worst {
			worst = s
		}
	}
	cycle := worst + overheadNS
	if cycle <= 0 {
		return 0
	}
	return 1000 / cycle // ns -> MHz
}

// Format renders an instruction like "lw r1, 0(r2)".
func (i Instr) Format() string {
	if i.Label != "" {
		return i.Label
	}
	switch i.Op {
	case OpLoad:
		return fmt.Sprintf("lw r%d, 0(r%d)", i.Dest, i.Src1)
	case OpStore:
		return fmt.Sprintf("sw r%d, 0(r%d)", i.Src1, i.Src2)
	case OpBranch:
		return fmt.Sprintf("beq r%d, r%d, L", i.Src1, i.Src2)
	case OpNop:
		return "nop"
	default:
		return fmt.Sprintf("add r%d, r%d, r%d", i.Dest, i.Src1, i.Src2)
	}
}
