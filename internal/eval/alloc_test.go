//go:build !race

// Allocation pins for the hot paths of DESIGN.md §12. The race
// detector instruments allocations, so these run only in the plain
// test pass; the race pass still exercises the same code through the
// functional tests.

package eval

import (
	"context"
	"testing"

	"repro/internal/dataset"
)

// TestParseNumberZeroAlloc pins ParseNumber — including the SI-prefix
// unit resolution with uppercase spellings — at zero steady-state
// allocations.
func TestParseNumberZeroAlloc(t *testing.T) {
	inputs := []string{
		"2.2 kOhm",
		"2 Mrad/s",
		"625 MHz",
		"-10 V/V",
		"about 43 nm of silicon",
		"1.5e3 Hz",
		"answer: 7",
	}
	for _, in := range inputs {
		in := in
		if _, _, ok := ParseNumber(in); !ok {
			t.Fatalf("ParseNumber(%q) found no number", in)
		}
		allocs := testing.AllocsPerRun(100, func() {
			ParseNumber(in)
		})
		if allocs != 0 {
			t.Errorf("ParseNumber(%q): %v allocs/op, want 0", in, allocs)
		}
	}
}

// TestJudgeZeroAlloc pins the full judge dispatch for all four answer
// kinds at zero steady-state allocations. One warm-up call per case
// grows the pooled Scratch buffers and populates the expression memo —
// the steady state every evaluation loop after the first reaches.
func TestJudgeZeroAlloc(t *testing.T) {
	j := Judge{}
	cases := []struct {
		name     string
		q        *dataset.Question
		response string
	}{
		{"choice-letter", mcQuestion(), "answer: b"},
		{"choice-content", mcQuestion(), "it is a full adder circuit"},
		{"number", &dataset.Question{
			Golden: dataset.Answer{Kind: dataset.AnswerNumber, Number: 2200, Unit: "Ohm", Tolerance: 0.02},
		}, "2.2 kOhm"},
		{"expression", &dataset.Question{
			Golden: dataset.Answer{Kind: dataset.AnswerExpression, Text: "F = A'B + AB'"},
		}, "A ^ B"},
		{"phrase", &dataset.Question{
			Golden: dataset.Answer{
				Kind: dataset.AnswerPhrase, Text: "clock tree synthesis",
				Accept: []string{"CTS"},
			},
		}, "it performs clock tree synthesis before routing"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if !j.Correct(c.q, c.response) { // warm-up; must also be correct
				t.Fatalf("warm-up judge call rejected %q", c.response)
			}
			allocs := testing.AllocsPerRun(100, func() {
				j.Correct(c.q, c.response)
			})
			if allocs != 0 {
				t.Errorf("Judge.Correct(%s): %v allocs/op, want 0", c.name, allocs)
			}
		})
	}
}

// discardSink consumes events without keeping them.
type discardSink struct{}

func (discardSink) Consume(Event) {}

// TestDeliverZeroAlloc pins the reorder ring's steady state: once the
// ring is allocated, parking and draining events — in order or one
// step out of order — allocates nothing.
func TestDeliverZeroAlloc(t *testing.T) {
	d := newTestDelivery(discardSink{})
	ctx := context.Background()
	seq := 0
	allocs := testing.AllocsPerRun(100, func() {
		d.deliver(ctx, Event{Seq: seq + 1})
		d.deliver(ctx, Event{Seq: seq})
		d.deliver(ctx, Event{Seq: seq + 2})
		seq += 3
	})
	if allocs != 0 {
		t.Errorf("deliver: %v allocs/op, want 0", allocs)
	}
	if d.next != seq {
		t.Fatalf("delivered through Seq %d, want %d", d.next, seq)
	}
}
