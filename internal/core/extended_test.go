package core

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
)

func TestBuildExtendedComposition(t *testing.T) {
	b, err := BuildExtended("fold-a", 10)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 50 {
		t.Fatalf("extended size %d, want 50", b.Len())
	}
	perCat := make(map[dataset.Category]int)
	for _, q := range b.Questions {
		perCat[q.Category]++
	}
	for _, c := range dataset.Categories() {
		if perCat[c] != 10 {
			t.Errorf("category %s: %d questions, want 10", c, perCat[c])
		}
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildExtendedRejectsBadSize(t *testing.T) {
	if _, err := BuildExtended("x", 0); err == nil {
		t.Error("zero perCategory accepted")
	}
}

func TestExtendedSeedsDisjoint(t *testing.T) {
	a, err := BuildExtended("fold-a", 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildExtended("fold-b", 5)
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]bool)
	for _, q := range a.Questions {
		ids[q.ID] = true
	}
	for _, q := range b.Questions {
		if ids[q.ID] {
			t.Errorf("ID %s appears in both folds", q.ID)
		}
	}
	// Different seeds should produce at least some different instances.
	same := 0
	for i := range a.Questions {
		if a.Questions[i].Prompt == b.Questions[i].Prompt &&
			a.Questions[i].Golden.Number == b.Questions[i].Golden.Number {
			same++
		}
	}
	if same == len(a.Questions) {
		t.Error("folds are identical; seed has no effect")
	}
}

func TestExtendedDisjointFromStandard(t *testing.T) {
	std := MustBuild()
	ext, err := BuildExtended("fold-a", 8)
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]bool)
	for _, q := range std.Questions {
		ids[q.ID] = true
	}
	for _, q := range ext.Questions {
		if ids[q.ID] {
			t.Errorf("extended ID %s collides with the standard collection", q.ID)
		}
	}
}

func TestExtendedGoldenOracle(t *testing.T) {
	// The oracle property must hold on generated extras too.
	b, err := BuildExtended("oracle", 15)
	if err != nil {
		t.Fatal(err)
	}
	j := eval.Judge{}
	for _, q := range b.Questions {
		golden := oracleAnswer(q)
		if !j.Correct(q, golden) {
			t.Errorf("%s: golden %q judged wrong", q.ID, golden)
		}
		if q.Type == dataset.MultipleChoice {
			wrong := dataset.ChoiceLetter((q.Golden.Choice + 1) % 4)
			if j.Correct(q, wrong) {
				t.Errorf("%s: wrong letter judged correct", q.ID)
			}
		}
	}
}

func TestExtendedDeterministic(t *testing.T) {
	a, _ := BuildExtended("det", 10)
	b, _ := BuildExtended("det", 10)
	for i := range a.Questions {
		if a.Questions[i].Prompt != b.Questions[i].Prompt ||
			a.Questions[i].Golden.Text != b.Questions[i].Golden.Text {
			t.Fatalf("question %d differs between identical builds", i)
		}
	}
}

func TestExtendedChoicesDistinct(t *testing.T) {
	b, err := BuildExtended("distinct", 25)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range b.Questions {
		seen := map[string]bool{}
		for _, c := range q.Choices {
			if seen[c] {
				t.Errorf("%s: duplicate option %q", q.ID, c)
			}
			seen[c] = true
		}
	}
}

func TestExtendedScales(t *testing.T) {
	for _, n := range []int{1, 13, 40} {
		b, err := BuildExtended(fmt.Sprintf("s%d", n), n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if b.Len() != 5*n {
			t.Errorf("n=%d: %d questions", n, b.Len())
		}
	}
}
