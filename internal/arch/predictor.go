package arch

// Predictor is a branch direction predictor simulated over an outcome
// stream (true = taken).
type Predictor interface {
	// Predict returns the predicted direction for a branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the actual outcome.
	Update(pc uint64, taken bool)
	// Name identifies the scheme.
	Name() string
}

// StaticPredictor always predicts the same direction.
type StaticPredictor struct{ Taken bool }

// Predict implements Predictor.
func (p *StaticPredictor) Predict(uint64) bool { return p.Taken }

// Update implements Predictor.
func (p *StaticPredictor) Update(uint64, bool) {}

// Name implements Predictor.
func (p *StaticPredictor) Name() string {
	if p.Taken {
		return "static taken"
	}
	return "static not-taken"
}

// TwoBitPredictor uses saturating 2-bit counters (0,1 predict not taken;
// 2,3 predict taken), initialised weakly not-taken.
type TwoBitPredictor struct {
	table []uint8
}

// NewTwoBit returns a 2-bit predictor with 2^bits entries.
func NewTwoBit(bits int) *TwoBitPredictor {
	t := &TwoBitPredictor{table: make([]uint8, 1<<bits)}
	for i := range t.table {
		t.table[i] = 1 // weakly not-taken
	}
	return t
}

// Predict implements Predictor.
func (p *TwoBitPredictor) Predict(pc uint64) bool {
	return p.table[pc%uint64(len(p.table))] >= 2
}

// Update implements Predictor.
func (p *TwoBitPredictor) Update(pc uint64, taken bool) {
	i := pc % uint64(len(p.table))
	if taken {
		if p.table[i] < 3 {
			p.table[i]++
		}
	} else if p.table[i] > 0 {
		p.table[i]--
	}
}

// Name implements Predictor.
func (p *TwoBitPredictor) Name() string { return "2-bit saturating" }

// RunPredictor feeds an outcome stream for a single branch pc and
// returns the misprediction count.
func RunPredictor(p Predictor, pc uint64, outcomes []bool) int {
	miss := 0
	for _, taken := range outcomes {
		if p.Predict(pc) != taken {
			miss++
		}
		p.Update(pc, taken)
	}
	return miss
}

// LoopOutcomes builds the outcome stream of a loop branch that is taken
// iters-1 times then falls through, repeated reps times.
func LoopOutcomes(iters, reps int) []bool {
	var out []bool
	for r := 0; r < reps; r++ {
		for i := 0; i < iters-1; i++ {
			out = append(out, true)
		}
		out = append(out, false)
	}
	return out
}
