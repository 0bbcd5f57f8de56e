// Quickstart: build the ChipVQA benchmark, evaluate one model, and print
// its Pass@1 per discipline — the minimal end-to-end use of the library.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/dataset"
)

func main() {
	suite, err := chipvqa.NewSuite()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("ChipVQA: %d questions across %d disciplines\n\n",
		suite.Benchmark.Len(), dataset.NumCategories)

	ctx := context.Background()
	report, err := suite.EvaluateContext(ctx, "GPT4o")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("GPT-4o zero-shot, standard collection:")
	by := report.Pass1ByCategory()
	for _, c := range dataset.Categories() {
		fmt.Printf("  %-16s Pass@1 = %.2f\n", c, by[c])
	}
	fmt.Printf("  %-16s Pass@1 = %.2f\n", "overall", report.Pass1())

	chal, err := suite.EvaluateChallengeContext(ctx, "GPT4o")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nchallenge collection (no options): Pass@1 = %.2f\n", chal.Pass1())
	fmt.Println("\nThe drop without options is the paper's key finding: answer")
	fmt.Println("choices act as retrieval-augmented context for the model.")
}
