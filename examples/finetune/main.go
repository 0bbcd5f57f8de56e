// Finetune: the paper's future-work direction — "ChipVQA-oriented
// dataset collection, VLM training and development, targeting a low-cost
// yet effective open-source foundation model". Generates an extended
// training pool, adapts the weakest LLaVA profile on nested folds, and
// reports the held-out learning curve with bootstrap confidence
// intervals.
package main

import (
	"context"
	"fmt"
	"log"

	chipvqa "repro"
	"repro/internal/eval"
	"repro/internal/vlm"
)

func main() {
	suite, err := chipvqa.NewSuite()
	if err != nil {
		log.Fatal(err)
	}

	m, err := suite.Model("LLaVA-7b")
	if err != nil {
		log.Fatal(err)
	}
	base := m.(*vlm.SimulatedVLM)

	pool, err := suite.Extended("train-pool", 30)
	if err != nil {
		log.Fatal(err)
	}
	test, err := suite.Extended("test-fold", 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("training pool: %d questions, held-out test: %d questions\n\n",
		pool.Len(), test.Len())

	ctx := context.Background()
	runner := eval.Runner{}
	fmt.Println("learning curve (LLaVA-7b, simulated domain adaptation):")
	for _, size := range []int{0, 5, 10, 20, 30} {
		curve, err := vlm.LearningCurve(ctx, base, pool, test, []int{size}, vlm.DefaultTraining())
		if err != nil {
			log.Fatal(err)
		}
		// Re-evaluate to get the full report for a CI.
		tuned := vlm.FineTune(base, subset(pool, size), vlm.DefaultTraining())
		rep, err := runner.EvaluateContext(ctx, tuned, test)
		if err != nil {
			log.Fatal(err)
		}
		ci := rep.BootstrapCI(1000, 0.95)
		fmt.Printf("  %2d train/category: held-out Pass@1 %s\n", curve[0].TrainPerCategory, ci)
	}

	fmt.Println("\nAdaptation saturates (exposure model 1-exp(-n/20)) and cannot")
	fmt.Println("exceed the backbone's headroom — a low-cost tuned open model")
	fmt.Println("narrows, but does not close, the gap to GPT-4o.")

	gpt4o, err := suite.EvaluateContext(ctx, "GPT4o")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreference: GPT-4o on the standard collection: %.2f\n", gpt4o.Pass1())
}

// subset takes the first n questions per category from the pool,
// walking categories in canonical order so the subset's question order
// (and therefore every downstream report) is deterministic.
func subset(pool *chipvqa.Benchmark, n int) *chipvqa.Benchmark {
	out := &chipvqa.Benchmark{Name: fmt.Sprintf("train-%d", n)}
	by := pool.ByCategory()
	for _, c := range chipvqa.Categories() {
		qs := by[c]
		k := n
		if k > len(qs) {
			k = len(qs)
		}
		out.Questions = append(out.Questions, qs[:k]...)
	}
	return out
}
