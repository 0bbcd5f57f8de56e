package dataset

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/visual"
)

// NewMC assembles a multiple-choice question. The correct option and the
// three distractors are shuffled into a deterministic order derived from
// the question ID, and the golden answer records both the option index
// and the option content (the challenge transform needs the content).
func NewMC(id string, cat Category, topic, prompt string, scene *visual.Scene,
	correct string, distractors [3]string, difficulty float64) *Question {
	q := &Question{
		ID:         id,
		Category:   cat,
		Type:       MultipleChoice,
		Topic:      topic,
		Prompt:     prompt,
		Visual:     scene,
		Difficulty: difficulty,
	}
	options := []string{correct, distractors[0], distractors[1], distractors[2]}
	order := rng.New("shuffle", id).Perm(4)
	q.Choices = make([]string, 4)
	for pos, src := range order {
		q.Choices[pos] = options[src]
		if src == 0 {
			q.Golden.Choice = pos
		}
	}
	q.Golden.Kind = AnswerChoice
	q.Golden.Text = correct
	return q
}

// NewMCNumeric is NewMC for questions whose correct option is a numeric
// value; the golden answer carries the raw number, unit and tolerance so
// the challenge (no-choice) variant is judged numerically.
func NewMCNumeric(id string, cat Category, topic, prompt string, scene *visual.Scene,
	value float64, unit string, tol float64, correct string, distractors [3]string,
	difficulty float64) *Question {
	q := NewMC(id, cat, topic, prompt, scene, correct, distractors, difficulty)
	q.Golden.Number = value
	q.Golden.Unit = unit
	if tol <= 0 {
		tol = 0.02
	}
	q.Golden.Tolerance = tol
	return q
}

// NewSANumber assembles a short-answer question with a numeric golden
// answer.
func NewSANumber(id string, cat Category, topic, prompt string, scene *visual.Scene,
	value float64, unit string, tol float64, difficulty float64) *Question {
	if tol <= 0 {
		tol = 0.02
	}
	return &Question{
		ID:         id,
		Category:   cat,
		Type:       ShortAnswer,
		Topic:      topic,
		Prompt:     prompt,
		Visual:     scene,
		Difficulty: difficulty,
		Golden: Answer{
			Kind:      AnswerNumber,
			Number:    value,
			Unit:      unit,
			Tolerance: tol,
			Text:      fmt.Sprintf("%g %s", value, unit),
		},
	}
}

// NewSAPhrase assembles a short-answer question whose golden answer is a
// short phrase with accepted synonyms.
func NewSAPhrase(id string, cat Category, topic, prompt string, scene *visual.Scene,
	answer string, accept []string, difficulty float64) *Question {
	return &Question{
		ID:         id,
		Category:   cat,
		Type:       ShortAnswer,
		Topic:      topic,
		Prompt:     prompt,
		Visual:     scene,
		Difficulty: difficulty,
		Golden:     Answer{Kind: AnswerPhrase, Text: answer, Accept: accept},
	}
}

// DistinctOptions picks the first three candidates that differ from the
// golden answer and from each other — a helper for generators whose
// distractor formulas can collide on particular parameter values. It
// panics when fewer than three distinct candidates exist, which is a
// generator bug.
func DistinctOptions(golden string, candidates ...string) [3]string {
	var out [3]string
	seen := map[string]bool{golden: true}
	i := 0
	for _, c := range candidates {
		if i >= 3 {
			break
		}
		if c == "" || seen[c] {
			continue
		}
		seen[c] = true
		out[i] = c
		i++
	}
	if i < 3 {
		panic(fmt.Sprintf("dataset: only %d distinct distractors for golden %q in %v", i, golden, candidates))
	}
	return out
}
