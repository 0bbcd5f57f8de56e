package core

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/visual"
	"repro/internal/vlm"
)

// These tests close ISSUE 7's acceptance loop: a large extended fold
// evaluated shard-at-a-time inside a fixed SceneCache byte envelope
// must produce reports byte-identical to the monolithic build.

func evalReportsJSON(t *testing.T, reps []*eval.Report) []byte {
	t.Helper()
	js, err := json.Marshal(reps)
	if err != nil {
		t.Fatalf("marshal reports: %v", err)
	}
	return js
}

// streamEvalEnvelope runs the streaming-vs-monolithic comparison for a
// fold of perCategory questions per discipline under the given
// SceneCache budget, returning peak cache bytes observed.
func streamEvalEnvelope(t *testing.T, seed string, perCategory, shardSize int, budget int64) int64 {
	t.Helper()
	// The simulated models answer through the package-level Default
	// cache, so the envelope is configured (and asserted) on it.
	visual.Default.Reset()
	visual.Default.SetBudget(budget)
	defer func() {
		visual.Default.SetBudget(0)
		visual.Default.Reset()
	}()

	mono, err := CollectExtended(seed, perCategory, shardSize)
	if err != nil {
		t.Fatalf("CollectExtended: %v", err)
	}
	// Calibrate one Table II model against the fold; decisions are keyed
	// by question ID, so the streaming pass (fresh question values, same
	// IDs) sees identical behaviour.
	models := vlm.NewZoo(mono).EvalModels()[:1]
	r := eval.Runner{Workers: 4, Opts: eval.InferenceOptions{DownsampleFactor: 8}}

	monoReports, err := r.EvaluateAllContext(context.Background(), models, mono)
	if err != nil {
		t.Fatalf("EvaluateAllContext: %v", err)
	}
	monoJSON := evalReportsJSON(t, monoReports)
	visual.Default.Reset() // isolate the streaming pass's cache pressure

	streamed := []*eval.Report{{}}
	err = r.EvaluateShardsContext(context.Background(), models, func(yield func(dataset.Shard) error) error {
		return StreamExtended(seed, perCategory, shardSize, yield)
	}, streamed)
	if err != nil {
		t.Fatalf("EvaluateShardsContext: %v", err)
	}
	if got := evalReportsJSON(t, streamed); string(got) != string(monoJSON) {
		t.Error("streaming reports differ from monolithic evaluation")
	}
	st := visual.Default.Stats()
	if st.PeakBytes > budget {
		t.Errorf("peak cache bytes %d exceed budget %d", st.PeakBytes, budget)
	}
	if st.Evictions == 0 {
		t.Errorf("no evictions under a %d-byte budget; envelope untested (stats %+v)", budget, st)
	}
	return st.PeakBytes
}

// TestStreamingEvalFixedMemoryEnvelope is the small always-on version:
// correctness of the envelope machinery at a size every test run can
// afford.
func TestStreamingEvalFixedMemoryEnvelope(t *testing.T) {
	streamEvalEnvelope(t, "envelope", 200, 64, 64<<10)
}

// TestStreamingEval100kEnvelope is the acceptance-scale run: a
// 100k-question extended fold evaluates via the streaming path with
// peak SceneCache bytes within the configured budget, byte-identical to
// the monolithic build. Heavy (two full 100k evaluations), so it is
// skipped in -short and under the race detector; the -race coverage of
// the streaming engine itself lives in internal/eval at workers
// 1/2/4/8.
func TestStreamingEval100kEnvelope(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-question run skipped in -short")
	}
	if raceEnabled {
		t.Skip("100k-question run skipped under the race detector")
	}
	peak := streamEvalEnvelope(t, "envelope-100k", 20000, 1024, 1<<20)
	t.Logf("peak SceneCache bytes over 100k questions: %d (budget %d)", peak, 1<<20)
}
