package vlm

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
)

func trainTestSplit(t *testing.T) (*dataset.Benchmark, *dataset.Benchmark) {
	t.Helper()
	pool, err := core.BuildExtended("train-pool", 30)
	if err != nil {
		t.Fatal(err)
	}
	test, err := core.BuildExtended("test-fold", 10)
	if err != nil {
		t.Fatal(err)
	}
	return pool, test
}

func TestFineTuneImprovesWeakModel(t *testing.T) {
	std := core.MustBuild()
	zoo := NewZoo(std)
	base, _ := zoo.Model("LLaVA-7b")
	pool, test := trainTestSplit(t)
	tuned := FineTune(base, pool, DefaultTraining())
	r := eval.Runner{}
	basePass := evaluate(t, r, base, test).Pass1()
	tunedPass := evaluate(t, r, tuned, test).Pass1()
	if tunedPass <= basePass {
		t.Errorf("tuned %.3f did not improve over base %.3f on held-out questions",
			tunedPass, basePass)
	}
	// Adaptation is bounded: it cannot reach perfection.
	if tunedPass > 0.9 {
		t.Errorf("tuned pass %.3f implausibly high", tunedPass)
	}
}

func TestFineTuneNeverHurts(t *testing.T) {
	std := core.MustBuild()
	zoo := NewZoo(std)
	base, _ := zoo.Model("GPT4o")
	pool, test := trainTestSplit(t)
	tuned := FineTune(base, pool, DefaultTraining())
	r := eval.Runner{}
	basePass := evaluate(t, r, base, test).Pass1()
	tunedPass := evaluate(t, r, tuned, test).Pass1()
	if tunedPass < basePass {
		t.Errorf("tuning regressed %.3f -> %.3f", basePass, tunedPass)
	}
}

func TestFineTuneZeroTrainingIsIdentity(t *testing.T) {
	std := core.MustBuild()
	zoo := NewZoo(std)
	base, _ := zoo.Model("LLaVA-13b")
	empty := &dataset.Benchmark{Name: "empty"}
	tuned := FineTune(base, empty, DefaultTraining())
	for _, q := range std.Questions[:30] {
		if tuned.Answer(q, eval.InferenceOptions{}) != base.Answer(q, eval.InferenceOptions{}) {
			t.Fatalf("%s: zero-exposure tuning changed the answer", q.ID)
		}
	}
	for _, e := range tuned.Exposure {
		if e != 0 {
			t.Error("exposure nonzero with empty training set")
		}
	}
}

func TestLearningCurveMonotoneByConstruction(t *testing.T) {
	std := core.MustBuild()
	zoo := NewZoo(std)
	base, _ := zoo.Model("LLaVA-7b")
	pool, test := trainTestSplit(t)
	curve, err := LearningCurve(context.Background(), base, pool, test, []int{0, 5, 15, 30}, DefaultTraining())
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 4 {
		t.Fatalf("curve length %d", len(curve))
	}
	// Exposure grows with the training size, so the boost does; measured
	// Pass@1 can wiggle by one question, so allow slack.
	if curve[len(curve)-1].Pass1 < curve[0].Pass1 {
		t.Errorf("learning curve fell: %v", curve)
	}
}

func TestSaturate(t *testing.T) {
	if s := saturate(0, 20); s != 0 {
		t.Errorf("saturate(0) = %v", s)
	}
	// n = k: 1 - 1/e.
	if s := saturate(20, 20); math.Abs(s-(1-1/math.E)) > 1e-6 {
		t.Errorf("saturate(k) = %v", s)
	}
	// Monotone, bounded by 1.
	prev := 0.0
	for n := 0; n <= 200; n += 10 {
		s := saturate(n, 20)
		if s < prev || s > 1 {
			t.Fatalf("saturate(%d) = %v (prev %v)", n, s, prev)
		}
		prev = s
	}
}

func TestFineTunedName(t *testing.T) {
	std := core.MustBuild()
	zoo := NewZoo(std)
	base, _ := zoo.Model("GPT4o")
	tuned := FineTune(base, &dataset.Benchmark{Name: "foldX"}, DefaultTraining())
	if !strings.Contains(tuned.Name(), "GPT4o") || !strings.Contains(tuned.Name(), "foldX") {
		t.Errorf("name %q", tuned.Name())
	}
}
