package eval

import (
	"runtime"
	"testing"

	"repro/internal/dataset"
)

func TestWorkersNormalization(t *testing.T) {
	auto := runtime.GOMAXPROCS(0)
	cases := []struct {
		workers int
		want    int
	}{
		{-1, auto},  // negative = auto
		{-99, auto}, // any negative normalizes
		{0, 1},      // zero value stays serial
		{1, 1},
		{7, 7},
	}
	for _, c := range cases {
		if got := (Runner{Workers: c.workers}).EffectiveWorkers(); got != c.want {
			t.Errorf("Workers=%d: effective %d, want %d", c.workers, got, c.want)
		}
	}
	if got := NewRunner().Workers; got != auto {
		t.Errorf("NewRunner().Workers = %d, want GOMAXPROCS %d", got, auto)
	}
}

func TestEvaluateAllParallelMatchesSerial(t *testing.T) {
	b := testBenchmark(30)
	models := []Model{
		fixedModel{"m1", func(q *dataset.Question) string { return "c" }},
		fixedModel{"m2", func(q *dataset.Question) string { return "a" }},
		fixedModel{"m3", func(q *dataset.Question) string {
			if q.ID[len(q.ID)-1]%2 == 0 {
				return "c"
			}
			return "b"
		}},
	}
	serial := evaluateAll(t, Runner{Workers: 1}, models, b)
	parallel := evaluateAll(t, Runner{Workers: 8}, models, b)
	if len(serial) != len(parallel) {
		t.Fatalf("report counts %d vs %d", len(serial), len(parallel))
	}
	for mi := range serial {
		if serial[mi].ModelName != parallel[mi].ModelName {
			t.Fatalf("model order differs at %d", mi)
		}
		for qi := range serial[mi].Results {
			if serial[mi].Results[qi] != parallel[mi].Results[qi] {
				t.Fatalf("model %d result %d differs: %+v vs %+v",
					mi, qi, serial[mi].Results[qi], parallel[mi].Results[qi])
			}
		}
	}
}

func TestEvaluateAllEmptyBenchmark(t *testing.T) {
	b := testBenchmark(0)
	reps := evaluateAll(t, Runner{Workers: -1}, []Model{
		fixedModel{"m", func(*dataset.Question) string { return "" }},
	}, b)
	if len(reps) != 1 || len(reps[0].Results) != 0 {
		t.Fatalf("empty benchmark reports %+v", reps)
	}
}

func TestBootstrapCIWorkerInvariant(t *testing.T) {
	correct := make([]bool, 142)
	for i := range correct {
		correct[i] = i%3 != 0
	}
	r := reportWith("inv", correct)
	// The interval is a function of (model, verdicts, resamples, level)
	// alone: it must not move with the process's parallelism.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	base := r.BootstrapCI(2000, 0.95)
	for _, w := range []int{2, 3, 8, 64} {
		runtime.GOMAXPROCS(w)
		if got := r.BootstrapCI(2000, 0.95); got != base {
			t.Errorf("GOMAXPROCS=%d: %v != GOMAXPROCS=1 %v", w, got, base)
		}
	}
}

func TestTruncateRuneSafe(t *testing.T) {
	cases := []struct {
		in   string
		n    int
		want string
	}{
		{"Digital", 7, "Digital"},
		{"Manufacture", 7, "Manufac"},
		{"数字设计验证", 3, "数字设"}, // must cut between runes, not bytes
		{"éééé", 2, "éé"},
		{"", 3, ""},
	}
	for _, c := range cases {
		if got := truncate(c.in, c.n); got != c.want {
			t.Errorf("truncate(%q, %d) = %q, want %q", c.in, c.n, got, c.want)
		}
	}
}
