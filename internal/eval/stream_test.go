package eval

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"repro/internal/dataset"
)

// sliceStream cuts a benchmark into shards of shardSize, mimicking the
// canonical producers (StreamExtended, StreamPack) without linking the
// discipline registry into this test binary.
func sliceStream(b *dataset.Benchmark, shardSize int) func(func(dataset.Shard) error) error {
	return func(yield func(dataset.Shard) error) error {
		idx := 0
		for start := 0; start < len(b.Questions); start += shardSize {
			end := min(start+shardSize, len(b.Questions))
			sh := dataset.Shard{Index: idx, Start: start, Questions: b.Questions[start:end]}
			idx++
			if err := yield(sh); err != nil {
				return err
			}
		}
		return nil
	}
}

func streamTestModels() []Model {
	return []Model{
		fixedModel{"always", func(q *dataset.Question) string { return "c" }},
		fixedModel{"never", func(q *dataset.Question) string { return "a" }},
		fixedModel{"echo", func(q *dataset.Question) string { return q.Golden.Text }},
	}
}

// evaluateShards runs a shard stream through EvaluateShardsContext into
// fresh reports.
func evaluateShards(r Runner, models []Model, stream func(func(dataset.Shard) error) error) ([]*Report, error) {
	reps := make([]*Report, len(models))
	for i := range reps {
		reps[i] = &Report{}
	}
	err := r.EvaluateShardsContext(context.Background(), models, stream, reps)
	return reps, err
}

func reportsJSON(t *testing.T, reps []*Report) []byte {
	t.Helper()
	js, err := json.Marshal(reps)
	if err != nil {
		t.Fatalf("marshal reports: %v", err)
	}
	return js
}

// TestEvaluateShardsMatchesMonolithic is the streaming determinism
// contract: for every worker count and shard geometry, shard-at-a-time
// evaluation produces reports byte-identical to one monolithic
// EvaluateAllContext. Run under -race this also exercises the per-shard worker
// pools concurrently.
func TestEvaluateShardsMatchesMonolithic(t *testing.T) {
	b := testBenchmark(23)
	models := streamTestModels()
	mono := reportsJSON(t, evaluateAll(t, Runner{}, models, b))
	for _, workers := range []int{1, 2, 4, 8} {
		r := Runner{Workers: workers}
		for _, shardSize := range []int{1, 3, 7, 23, 50} {
			reps, err := evaluateShards(r, models, sliceStream(b, shardSize))
			if err != nil {
				t.Fatalf("workers=%d shard=%d: %v", workers, shardSize, err)
			}
			if got := reportsJSON(t, reps); string(got) != string(mono) {
				t.Errorf("workers=%d shard=%d: streaming reports differ from monolithic", workers, shardSize)
			}
		}
	}
}

// TestEvaluateShardsInto checks buffer reuse semantics: caller-retained
// reports are refilled in place across runs.
func TestEvaluateShardsInto(t *testing.T) {
	b := testBenchmark(10)
	models := streamTestModels()
	reports := make([]*Report, len(models))
	for i := range reports {
		reports[i] = &Report{Results: make([]QuestionResult, 0, len(b.Questions))}
	}
	for run := 0; run < 2; run++ {
		if err := (Runner{}).EvaluateShardsContext(context.Background(), models, sliceStream(b, 4), reports); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		for i, rep := range reports {
			if len(rep.Results) != len(b.Questions) {
				t.Fatalf("run %d model %d: %d results", run, i, len(rep.Results))
			}
		}
	}
	if got := reportsJSON(t, reports); string(got) != string(reportsJSON(t, evaluateAll(t, Runner{}, models, b))) {
		t.Error("refilled reports differ from monolithic")
	}
}

func TestEvaluateShardsStopsOnStreamError(t *testing.T) {
	b := testBenchmark(10)
	sentinel := errors.New("shard source failed")
	stream := func(yield func(dataset.Shard) error) error {
		if err := yield(dataset.Shard{Questions: b.Questions[:5]}); err != nil {
			return err
		}
		return sentinel
	}
	reps, err := evaluateShards(Runner{}, streamTestModels(), stream)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	for _, rep := range reps {
		if len(rep.Results) != 5 {
			t.Errorf("model %s: %d results, want the 5 evaluated before the failure", rep.ModelName, len(rep.Results))
		}
	}
}

func TestEvaluateShardsCancellation(t *testing.T) {
	b := testBenchmark(12)
	models := streamTestModels()
	ctx, cancel := context.WithCancel(context.Background())
	shards := 0
	stream := func(yield func(dataset.Shard) error) error {
		for start := 0; start < len(b.Questions); start += 4 {
			shards++
			if shards == 2 {
				cancel() // takes effect at the next shard boundary
			}
			if err := yield(dataset.Shard{Index: shards - 1, Start: start, Questions: b.Questions[start : start+4]}); err != nil {
				return err
			}
		}
		return nil
	}
	reports := make([]*Report, len(models))
	for i := range reports {
		reports[i] = &Report{}
	}
	err := (Runner{}).EvaluateShardsContext(ctx, models, stream, reports)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Shard 1 completed, shard 2 was cancelled mid-flight or before
	// starting; every report must hold a clean prefix of question order.
	for _, rep := range reports {
		for i, res := range rep.Results {
			if want := fmt.Sprintf("t%02d", i); res.QuestionID != want {
				t.Fatalf("model %s result %d is %s, want %s (not a prefix)", rep.ModelName, i, res.QuestionID, want)
			}
		}
	}
}

func TestEvaluateShardsArgErrors(t *testing.T) {
	models := streamTestModels()
	if err := (Runner{}).EvaluateShardsContext(context.Background(), models, nil, make([]*Report, len(models))); err == nil {
		t.Error("nil stream accepted")
	}
	if err := (Runner{}).EvaluateShardsContext(context.Background(), models, sliceStream(testBenchmark(2), 1), make([]*Report, 1)); err == nil {
		t.Error("mismatched report count accepted")
	}
}
