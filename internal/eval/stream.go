package eval

import (
	"context"
	"fmt"

	"repro/internal/dataset"
)

// Streaming evaluation: the shard-at-a-time counterpart of
// EvaluateAllContext for folds too large to hold in memory. The stream
// callback drives the run — StreamExtended regenerates shards,
// StreamPack decodes them from a packed fold — and each shard's
// questions are released to the garbage collector as soon as the next
// shard arrives.
//
// Reports are byte-identical to a monolithic EvaluateAllContext over
// the concatenated questions: every stochastic decision in the pipeline is
// keyed by (model, question, stage) and never by a question's position
// in the run, so evaluating a question inside shard 7 of 100 produces
// exactly the result it has inside one monolithic benchmark. Within a
// shard the grid is model-major and the sink consumes in Seq order, so
// each model's Results fill in question order across shards too.

// EvaluateShardsContext runs every model over a shard stream, writing
// into caller-retained reports (one per model, same order). stream
// must call its yield for each shard in canonical order (dataset.Shard
// semantics) and return yield's error unchanged; both shard producers
// in this repository do. On cancel the error is ctx.Err() and each
// report holds a consistent prefix: shards before the cut-off are
// complete, the shard at the cut-off contributes a prefix of its own
// model-major order.
//
// An Observer on the Runner sees events with shard-local Seq values
// (each shard runs its own grid); order within a shard is still the
// deterministic canonical order.
func (r Runner) EvaluateShardsContext(ctx context.Context, models []Model, stream func(func(dataset.Shard) error) error, reports []*Report) error {
	if len(reports) != len(models) {
		return fmt.Errorf("eval: %d reports for %d models", len(reports), len(models))
	}
	if stream == nil {
		return fmt.Errorf("eval: nil shard stream")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	for i, m := range models {
		reports[i].ModelName = m.Name()
		reports[i].Results = reports[i].Results[:0]
	}
	if len(models) == 0 {
		return nil
	}
	return stream(func(sh dataset.Shard) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if len(sh.Questions) == 0 {
			return nil
		}
		sink := &reportSink{nq: len(sh.Questions), reports: reports}
		return r.run(ctx, newGridScheduler(models, sh.Questions), sink)
	})
}
