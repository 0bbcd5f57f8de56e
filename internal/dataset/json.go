package dataset

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/visual"
)

// jsonQuestion is the wire form of a question. The visual is exported as
// its scene graph plus the rendered image dimensions; the raster itself
// is regenerated from the scene on import, so benchmark files stay small
// and diffable.
type jsonQuestion struct {
	ID         string        `json:"id"`
	Category   string        `json:"category"`
	Type       string        `json:"type"`
	Topic      string        `json:"topic"`
	Prompt     string        `json:"prompt"`
	Choices    []string      `json:"choices,omitempty"`
	Golden     jsonAnswer    `json:"golden"`
	Difficulty float64       `json:"difficulty"`
	Visual     *visual.Scene `json:"visual"`
	VisualKind string        `json:"visual_kind"`
}

type jsonAnswer struct {
	Kind      string   `json:"kind"`
	Choice    int      `json:"choice,omitempty"`
	Number    float64  `json:"number,omitempty"`
	Unit      string   `json:"unit,omitempty"`
	Tolerance float64  `json:"tolerance,omitempty"`
	Text      string   `json:"text,omitempty"`
	Accept    []string `json:"accept,omitempty"`
}

var answerKindNames = map[AnswerKind]string{
	AnswerChoice:     "choice",
	AnswerNumber:     "number",
	AnswerExpression: "expression",
	AnswerPhrase:     "phrase",
}

// WriteJSON serialises the benchmark as indented JSON.
func (b *Benchmark) WriteJSON(w io.Writer) error {
	out := struct {
		Name      string         `json:"name"`
		Questions []jsonQuestion `json:"questions"`
	}{Name: b.Name}
	for _, q := range b.Questions {
		jq := jsonQuestion{
			ID:         q.ID,
			Category:   q.Category.Short(),
			Type:       q.Type.String(),
			Topic:      q.Topic,
			Prompt:     q.Prompt,
			Choices:    q.Choices,
			Difficulty: q.Difficulty,
			Visual:     q.Visual,
			VisualKind: q.Visual.Kind.String(),
			Golden: jsonAnswer{
				Kind:      answerKindNames[q.Golden.Kind],
				Choice:    q.Golden.Choice,
				Number:    q.Golden.Number,
				Unit:      q.Golden.Unit,
				Tolerance: q.Golden.Tolerance,
				Text:      q.Golden.Text,
				Accept:    q.Golden.Accept,
			},
		}
		out.Questions = append(out.Questions, jq)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadJSON parses a benchmark previously written with WriteJSON.
func ReadJSON(r io.Reader) (*Benchmark, error) {
	var in struct {
		Name      string         `json:"name"`
		Questions []jsonQuestion `json:"questions"`
	}
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("dataset: decode: %w", err)
	}
	b := &Benchmark{Name: in.Name}
	for _, jq := range in.Questions {
		q, err := jq.toQuestion()
		if err != nil {
			return nil, err
		}
		b.Questions = append(b.Questions, q)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

func (jq jsonQuestion) toQuestion() (*Question, error) {
	q := &Question{
		ID:         jq.ID,
		Topic:      jq.Topic,
		Prompt:     jq.Prompt,
		Choices:    jq.Choices,
		Difficulty: jq.Difficulty,
		Visual:     jq.Visual,
	}
	found := false
	for _, c := range Categories() {
		if c.Short() == jq.Category {
			q.Category = c
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("dataset: %s: unknown category %q", jq.ID, jq.Category)
	}
	switch jq.Type {
	case "MC":
		q.Type = MultipleChoice
	case "SA":
		q.Type = ShortAnswer
	default:
		return nil, fmt.Errorf("dataset: %s: unknown type %q", jq.ID, jq.Type)
	}
	kindFound := false
	for k, name := range answerKindNames {
		if name == jq.Golden.Kind {
			q.Golden.Kind = k
			kindFound = true
			break
		}
	}
	if !kindFound {
		return nil, fmt.Errorf("dataset: %s: unknown answer kind %q", jq.ID, jq.Golden.Kind)
	}
	q.Golden.Choice = jq.Golden.Choice
	q.Golden.Number = jq.Golden.Number
	q.Golden.Unit = jq.Golden.Unit
	q.Golden.Tolerance = jq.Golden.Tolerance
	q.Golden.Text = jq.Golden.Text
	q.Golden.Accept = jq.Golden.Accept
	if q.Visual != nil && jq.VisualKind != "" {
		k := 0
		for k < visual.NumKinds && visual.Kind(k).String() != jq.VisualKind {
			k++
		}
		if k == visual.NumKinds {
			return nil, fmt.Errorf("dataset: %s: unknown visual kind %q", jq.ID, jq.VisualKind)
		}
		q.Visual.Kind = visual.Kind(k)
	}
	return q, nil
}
