package core

import (
	"fmt"

	"repro/internal/dataset"
)

// BuildExtended generates an extended collection beyond the fixed
// 142-question benchmark — the paper's stated future work
// ("ChipVQA-oriented dataset collection"). Each registered discipline
// contributes perCategory additional seed-parameterised questions from
// its template library; the seed makes disjoint collections ("fold-a",
// "fold-b", ...) for train/test studies. Like BuildBenchmark, assembly
// walks the dataset generator registry in canonical category order.
func BuildExtended(seed string, perCategory int) (*dataset.Benchmark, error) {
	if perCategory <= 0 {
		return nil, fmt.Errorf("core: perCategory must be positive, got %d", perCategory)
	}
	gens, err := registeredGenerators()
	if err != nil {
		return nil, err
	}
	b := &dataset.Benchmark{Name: fmt.Sprintf("ChipVQA-extended-%s", seed)}
	b.Questions = generateConcurrent(gens, func(g dataset.Generator) []*dataset.Question {
		return g.GenerateExtra(seed, perCategory)
	})
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}
