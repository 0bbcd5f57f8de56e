package eval

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"unicode/utf8"

	"repro/internal/dataset"
)

// InferenceOptions carries the evaluation-time knobs of §IV.
type InferenceOptions struct {
	// DownsampleFactor degrades the question image by the given integer
	// factor before the model sees it (1 = original resolution); the
	// §IV-B study uses 8 and 16.
	DownsampleFactor int
}

// Model is anything that can answer a benchmark question: the simulated
// VLMs of internal/vlm and the agent system of internal/agent both
// implement it. Implementations must be safe for concurrent Answer
// calls; everything in this repository is read-only after construction.
type Model interface {
	Name() string
	Answer(q *dataset.Question, opts InferenceOptions) string
}

// QuestionResult records one (model, question) outcome.
type QuestionResult struct {
	QuestionID string
	Category   dataset.Category
	Response   string
	Correct    bool
}

// Report aggregates Pass@1 over a benchmark run.
type Report struct {
	ModelName string
	Results   []QuestionResult
}

// Pass1 returns overall Pass@1.
func (r *Report) Pass1() float64 {
	if len(r.Results) == 0 {
		return 0
	}
	c := 0
	for _, q := range r.Results {
		if q.Correct {
			c++
		}
	}
	return float64(c) / float64(len(r.Results))
}

// Pass1ByCategory returns Pass@1 per discipline.
func (r *Report) Pass1ByCategory() map[dataset.Category]float64 {
	total := make(map[dataset.Category]int)
	correct := make(map[dataset.Category]int)
	for _, q := range r.Results {
		total[q.Category]++
		if q.Correct {
			correct[q.Category]++
		}
	}
	out := make(map[dataset.Category]float64, len(total))
	for c, t := range total {
		out[c] = float64(correct[c]) / float64(t)
	}
	return out
}

// Runner evaluates models over a benchmark with a judge. Each run
// shape has one context-first entry point — EvaluateContext,
// EvaluateAllContext, EvaluateShardsContext, EvaluateAdaptiveContext —
// and all of them drive the same loop (pipeline.go): an ItemScheduler
// hands out the tasks, a worker pool answers and judges them, and a
// sink collects results in canonical order.
//
// Workers selects the evaluation engine:
//
//	> 0  that many pooled worker goroutines
//	== 0 serial (the zero value keeps its historical behaviour)
//	< 0  auto: runtime.GOMAXPROCS(0) workers
//
// Results are deterministic regardless of Workers: every stochastic
// decision draws from an rng stream keyed by (model, question, stage),
// never from shared generator state, and results land in question order.
// A parallel run therefore produces byte-identical reports to a serial
// one (see TestTableIIDeterministicAcrossWorkers).
type Runner struct {
	Judge Judge
	Opts  InferenceOptions
	// Workers bounds concurrent question evaluations; see the type doc.
	Workers int
	// Observer, when non-nil, receives every completed event in
	// deterministic question order — the metrics/tracing seam. See the
	// Observer interface for the cancellation semantics.
	Observer Observer
}

// NewRunner returns a Runner with Workers defaulted to
// runtime.GOMAXPROCS(0) — the engine the paper-scale experiments
// (12 models x 2 collections x 142 questions) should run on.
func NewRunner() Runner {
	return Runner{Workers: runtime.GOMAXPROCS(0)}
}

// EffectiveWorkers normalizes the Workers knob: negative means auto
// (GOMAXPROCS), zero means serial, positive is taken as-is.
func (r Runner) EffectiveWorkers() int {
	switch {
	case r.Workers < 0:
		return runtime.GOMAXPROCS(0)
	case r.Workers == 0:
		return 1
	default:
		return r.Workers
	}
}

// EvaluateContext runs one model over the benchmark: the one-model
// grid of EvaluateAllContext, whose Seq order is the question order.
// On cancel it returns ctx.Err() together with a partial report
// holding a consistent prefix of the question order; every result
// present is byte-identical to the full run's.
func (r Runner) EvaluateContext(ctx context.Context, m Model, b *dataset.Benchmark) (*Report, error) {
	out, err := r.EvaluateAllContext(ctx, []Model{m}, b)
	return out[0], err
}

// EvaluateAllContext runs every model and returns reports in input
// order. The (model, question) grid is flattened into one task list so
// the worker pool stays busy across model boundaries — a cheap model
// finishing early does not idle its workers while an expensive one
// lags. On cancel the returned reports hold a consistent prefix of the
// flattened model-major order: models before the cut-off are complete,
// the model at the cut-off has a prefix of its questions, later models
// are empty.
func (r Runner) EvaluateAllContext(ctx context.Context, models []Model, b *dataset.Benchmark) ([]*Report, error) {
	// One header block and one backing array for the whole grid instead
	// of two allocations per model. The three-index slice expressions
	// cap each report's window at its own nq results, so an append past
	// a model's share can never bleed into its neighbour's window.
	nq := len(b.Questions)
	out := make([]*Report, len(models))
	headers := make([]Report, len(models))
	backing := make([]QuestionResult, len(models)*nq)
	for i, m := range models {
		headers[i] = Report{ModelName: m.Name(), Results: backing[i*nq : i*nq : (i+1)*nq]}
		out[i] = &headers[i]
	}
	if nq == 0 || len(models) == 0 {
		return out, nil
	}
	sink := &reportSink{nq: nq, reports: out}
	return out, r.run(ctx, newGridScheduler(models, b.Questions), sink)
}

// FormatTableII renders reports in the layout of the paper's Table II:
// one row per model, Pass@1 per category plus overall, for the
// with-choice and without-choice runs side by side.
func FormatTableII(withChoice, noChoice []*Report) string {
	var sb strings.Builder
	cats := dataset.Categories()
	sb.WriteString(fmt.Sprintf("%-20s |", "Model"))
	for _, c := range cats {
		sb.WriteString(fmt.Sprintf(" %-7s", truncate(c.Short(), 7)))
	}
	sb.WriteString(" | all   ")
	if noChoice != nil {
		sb.WriteString("||")
		for _, c := range cats {
			sb.WriteString(fmt.Sprintf(" %-7s", truncate(c.Short(), 7)))
		}
		sb.WriteString(" | all")
	}
	sb.WriteString("\n")
	for i, rep := range withChoice {
		sb.WriteString(fmt.Sprintf("%-20s |", rep.ModelName))
		by := rep.Pass1ByCategory()
		for _, c := range cats {
			sb.WriteString(fmt.Sprintf(" %.2f   ", by[c]))
		}
		sb.WriteString(fmt.Sprintf("| %.2f  ", rep.Pass1()))
		if noChoice != nil && i < len(noChoice) {
			sb.WriteString("||")
			byN := noChoice[i].Pass1ByCategory()
			for _, c := range cats {
				sb.WriteString(fmt.Sprintf(" %.2f   ", byN[c]))
			}
			sb.WriteString(fmt.Sprintf("| %.2f", noChoice[i].Pass1()))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// WrongQuestions lists IDs the model missed, sorted.
func (r *Report) WrongQuestions() []string {
	var out []string
	for _, q := range r.Results {
		if !q.Correct {
			out = append(out, q.QuestionID)
		}
	}
	sort.Strings(out)
	return out
}

// truncate shortens s to at most n runes. Truncating by bytes could
// split a multi-byte rune in a category short name and emit invalid
// UTF-8 into the table.
func truncate(s string, n int) string {
	if utf8.RuneCountInString(s) <= n {
		return s
	}
	rs := []rune(s)
	return string(rs[:n])
}
