// Modelzoo: the §IV-A studies — the full Table II comparison, the
// MC-as-RAG gap, the open-vs-proprietary gap, and the LLaVA backbone
// scaling case study.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/vlm"
)

func main() {
	suite, err := chipvqa.NewSuite()
	if err != nil {
		log.Fatal(err)
	}

	with, without, err := suite.TableIIContext(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("TABLE II  Zero-Shot Evaluation on ChipVQA")
	fmt.Print(chipvqa.FormatTableII(with, without))

	// The MC-as-RAG effect: every model drops when options are removed.
	fmt.Println("\nMC-as-RAG gap (Pass@1 with options minus without):")
	for i := range with {
		fmt.Printf("  %-20s %+.2f\n", with[i].ModelName, with[i].Pass1()-without[i].Pass1())
	}

	// Open-source vs proprietary.
	var bestOpen float64
	var bestOpenName string
	var proprietary float64
	for i, p := range vlm.Profiles() {
		pass := with[i].Pass1()
		if p.OpenSource {
			if pass > bestOpen {
				bestOpen, bestOpenName = pass, p.Name
			}
		} else {
			proprietary = pass
		}
	}
	fmt.Printf("\nbest open-source (%s): %.2f  proprietary GPT-4o: %.2f  gap: %.2f\n",
		bestOpenName, bestOpen, proprietary, proprietary-bestOpen)

	// LLaVA backbone scaling: accuracy should track the text backbone.
	fmt.Println("\nLLaVA backbone case study (stronger LLM backbone -> higher Pass@1):")
	byName := make(map[string]float64)
	for _, r := range with {
		byName[r.ModelName] = r.Pass1()
	}
	for _, p := range vlm.LLaVAFamily() {
		fmt.Printf("  %-16s backbone %-12s strength %.2f  Pass@1 %.2f\n",
			p.Name, p.Backbone, p.BackboneStrength, byName[p.Name])
	}
}
