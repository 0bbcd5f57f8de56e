// Custommodel: plug a user-defined model into the evaluation harness.
// Two baselines run here: a uniform random guesser, which reproduces the
// paper's observation that answer options establish a ~25% floor on
// multiple-choice questions ("a baseline pass rate of 25%"), and an
// abstainer, which shows the floor disappears on short answers.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/eval"
	"repro/internal/rng"
)

// randomGuesser picks a uniformly random option letter on multiple
// choice and abstains on short answer.
type randomGuesser struct{}

func (randomGuesser) Name() string { return "random-guess" }

func (randomGuesser) Answer(q *chipvqa.Question, _ chipvqa.InferenceOptions) string {
	if len(q.Choices) == 4 {
		return string(rune('a' + rng.Pick(4, "baseline", q.ID)))
	}
	return "unknown"
}

// abstainer never answers.
type abstainer struct{}

func (abstainer) Name() string { return "abstain" }

func (abstainer) Answer(*chipvqa.Question, chipvqa.InferenceOptions) string { return "" }

func main() {
	suite, err := chipvqa.NewSuite()
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	runner := eval.Runner{}

	for _, m := range []chipvqa.Model{randomGuesser{}, abstainer{}} {
		std, err := runner.EvaluateContext(ctx, m, suite.Benchmark)
		if err != nil {
			log.Fatal(err)
		}
		chal, err := runner.EvaluateContext(ctx, m, suite.ChallengeSet)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s standard %.2f   challenge %.2f\n",
			m.Name(), std.Pass1(), chal.Pass1())
	}

	// The MC-only floor: evaluate the guesser on just the 99 MC
	// questions.
	mcOnly := suite.Benchmark.Filter(func(q *chipvqa.Question) bool {
		return len(q.Choices) == 4
	})
	bench := &chipvqa.Benchmark{Name: "mc-only", Questions: mcOnly}
	rep, err := runner.EvaluateContext(ctx, randomGuesser{}, bench)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrandom guessing on the %d multiple-choice questions: Pass@1 = %.2f\n",
		len(mcOnly), rep.Pass1())
	fmt.Println("(the paper's 25% multiple-choice baseline)")
}
