// Benchmark harness: one testing.B benchmark per experiment of the
// paper (see DESIGN.md §4 for the experiment index E1..E8) plus the
// ablations of DESIGN.md §5. Each benchmark prints the rows/series the
// corresponding table or figure reports, then times the regeneration.
//
// Run everything:  go test -bench=. -benchmem
package chipvqa_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	chipvqa "repro"
	"repro/internal/agent"
	"repro/internal/arch"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/rng"
	"repro/internal/visual"
	"repro/internal/vlm"
)

// evaluate runs one model through Runner.EvaluateContext, failing the
// benchmark on error.
func evaluate(tb testing.TB, r eval.Runner, m chipvqa.Model, bench *chipvqa.Benchmark) *chipvqa.Report {
	tb.Helper()
	rep, err := r.EvaluateContext(context.Background(), m, bench)
	if err != nil {
		tb.Fatal(err)
	}
	return rep
}

// E1 — Table I: benchmark statistics.
func BenchmarkTableI(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	b.Logf("\n%s", suite.FormatTableI())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = suite.Stats()
	}
}

// E2 — Table II (left): zero-shot Pass@1 with multiple choice.
func BenchmarkTableIIWithChoice(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	with, _ := tableII(b, suite)
	b.Logf("\n%s", chipvqa.FormatTableII(with, nil))
	models := suite.ModelNames()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range models {
			if _, err := suite.EvaluateContext(context.Background(), name); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// E2b — the same Table II sweep pinned to the serial engine: the
// baseline the parallel engine is measured against.
func BenchmarkTableIISerial(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	suite.Workers = 1
	models := suite.ModelNames()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range models {
			if _, err := suite.EvaluateContext(context.Background(), name); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// E2c — the identical sweep on the pooled engine at GOMAXPROCS
// workers. Compare against BenchmarkTableIISerial for the speedup; the
// equivalence test proves the reports are byte-identical.
func BenchmarkTableIIParallel(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	suite.Workers = -1 // auto: GOMAXPROCS
	models := suite.ModelNames()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range models {
			if _, err := suite.EvaluateContext(context.Background(), name); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// E2f — the adaptive acceptance tournament (fold-j, seed "acceptance")
// over a bank calibrated once outside the timer, at workers 1 and at
// GOMAXPROCS. Every recorded event runs the posterior update under the
// pipeline's delivery lock, so this is the case that shows whether that
// lock is a bottleneck; each op checks the full-grid ranking is still
// reproduced.
func BenchmarkAdaptiveTournament(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	cal, err := suite.AdaptiveCalibrate(context.Background(), "fold-j", 30)
	if err != nil {
		b.Fatal(err)
	}
	var models []chipvqa.Model
	for _, name := range suite.ModelNames() {
		m, err := suite.Model(name)
		if err != nil {
			b.Fatal(err)
		}
		models = append(models, m)
	}
	for _, workers := range []int{1, -1} {
		name := "workers=1"
		if workers < 0 {
			name = "workers=GOMAXPROCS"
		}
		b.Run(name, func(b *testing.B) {
			r := eval.Runner{Workers: workers}
			for i := 0; i < b.N; i++ {
				res, err := cal.Run(context.Background(), r, models, chipvqa.AdaptiveConfig{Seed: "acceptance"})
				if err != nil {
					b.Fatal(err)
				}
				if res.RankAgreement != 1 {
					b.Fatalf("rank agreement %v, want 1", res.RankAgreement)
				}
			}
		})
	}
}

// E2d — the full 12x142 (model, question) grid as one flattened task
// list on the pooled engine: the shape TableII actually runs.
func BenchmarkTableIIGrid(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	suite.Workers = -1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with, _ := tableII(b, suite)
		if len(with) != 12 {
			b.Fatal("short report set")
		}
	}
}

// E2e — the sharded grid sweep: the full (model, question) grid through
// EvaluateAllContext at fixed worker counts 1/2/4/8, each shard count
// first proven byte-identical to the workers=1 run via a digest over
// every model name, question ID, response and verdict. The scaling is
// recorded by the benchmark numbers but never asserted — on a 1-CPU
// host the sharded runs legitimately show none; only the structural
// property (identical output) is checked.
func BenchmarkTableIIGridSharded(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	var models []chipvqa.Model
	for _, name := range suite.ModelNames() {
		m, err := suite.Model(name)
		if err != nil {
			b.Fatal(err)
		}
		models = append(models, m)
	}
	digest := func(reports []*chipvqa.Report) string {
		h := sha256.New()
		for _, r := range reports {
			_, _ = h.Write([]byte(r.ModelName))
			for _, q := range r.Results {
				_, _ = h.Write([]byte{0})
				_, _ = h.Write([]byte(q.QuestionID))
				_, _ = h.Write([]byte(q.Response))
				if q.Correct {
					_, _ = h.Write([]byte{1})
				}
			}
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	serial, err := eval.Runner{Workers: 1}.EvaluateAllContext(context.Background(), models, suite.Benchmark)
	if err != nil {
		b.Fatal(err)
	}
	base := digest(serial)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			r := eval.Runner{Workers: w}
			reports, err := r.EvaluateAllContext(context.Background(), models, suite.Benchmark)
			if err != nil {
				b.Fatal(err)
			}
			if d := digest(reports); d != base {
				b.Fatalf("workers=%d digest %s != serial digest %s", w, d, base)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.EvaluateAllContext(context.Background(), models, suite.Benchmark); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Hot-path micro-benchmark (DESIGN.md §12): judging every stored
// (question, response) pair of one report. It must report 0 allocs/op
// in the steady state — TestJudgeZeroAlloc pins the same property as a
// hard test failure.
func BenchmarkJudgeAll(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	rep, err := suite.EvaluateContext(context.Background(), "GPT4o")
	if err != nil {
		b.Fatal(err)
	}
	qByID := make(map[string]*chipvqa.Question, suite.Benchmark.Len())
	for _, q := range suite.Benchmark.Questions {
		qByID[q.ID] = q
	}
	judge := eval.Judge{}
	for _, qr := range rep.Results { // warm-up: grow buffers, fill memo
		judge.Correct(qByID[qr.QuestionID], qr.Response)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, qr := range rep.Results {
			judge.Correct(qByID[qr.QuestionID], qr.Response)
		}
	}
}

// E3 — Table II (right): challenge collection (options removed).
func BenchmarkTableIINoChoice(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	var reports []*chipvqa.Report
	for _, name := range suite.ModelNames() {
		rep, err := suite.EvaluateChallengeContext(context.Background(), name)
		if err != nil {
			b.Fatal(err)
		}
		reports = append(reports, rep)
	}
	b.Logf("\n%s", chipvqa.FormatTableII(reports, nil))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range suite.ModelNames() {
			if _, err := suite.EvaluateChallengeContext(context.Background(), name); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// E4 — Table III: agent system versus direct GPT-4o.
func BenchmarkTableIII(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	vals, err := suite.TableIIIContext(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("\nWith Choice: GPT4o %.2f  Agent %.2f\nNo Choice:   GPT4o %.2f  Agent %.2f",
		vals[0], vals[1], vals[2], vals[3])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := suite.TableIIIContext(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// E5 — §IV-B resolution study: GPT-4o on Digital at 1x/8x/16x.
func BenchmarkResolution(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	m, err := suite.Model("GPT4o")
	if err != nil {
		b.Fatal(err)
	}
	digital := &dataset.Benchmark{Name: "digital", Questions: suite.Benchmark.Filter(
		func(q *chipvqa.Question) bool { return q.Category == chipvqa.Digital })}
	for _, f := range []int{1, 8, 16} {
		r := eval.Runner{Opts: eval.InferenceOptions{DownsampleFactor: f}}
		b.Logf("downsample %2dx: Pass@1 = %.2f", f, evaluate(b, r, m, digital).Pass1())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range []int{1, 8, 16} {
			r := eval.Runner{Opts: eval.InferenceOptions{DownsampleFactor: f}}
			evaluate(b, r, m, digital)
		}
	}
}

// E6 — Fig. 1/3 breadth: discipline x visual-type coverage matrix.
func BenchmarkCoverage(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	b.Logf("\n%s", dataset.FormatCoverage(suite.Benchmark.CoverageMatrix()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = suite.Benchmark.CoverageMatrix()
	}
}

// E7 — §IV-A LLaVA backbone scaling case study.
func BenchmarkBackboneScaling(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	for _, p := range vlm.LLaVAFamily() {
		rep, err := suite.EvaluateContext(context.Background(), p.Name)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("%-16s backbone=%-12s strength=%.2f Pass@1=%.2f",
			p.Name, p.Backbone, p.BackboneStrength, rep.Pass1())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range vlm.LLaVAFamily() {
			if _, err := suite.EvaluateContext(context.Background(), p.Name); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// E8 — §IV-A MC-as-RAG effect: per-model gap between collections.
func BenchmarkChoiceGap(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	with, without := tableII(b, suite)
	for i := range with {
		b.Logf("%-20s gap=%+.2f", with[i].ModelName, with[i].Pass1()-without[i].Pass1())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, n := tableII(b, suite)
		_ = w[0].Pass1() - n[0].Pass1()
	}
}

// Ablation — guessing floor: what part of the MC advantage is the 25%
// guess floor? Compare the random-guess baseline on MC questions against
// an abstaining baseline.
func BenchmarkAblationNoGuess(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	mc := &dataset.Benchmark{Name: "mc", Questions: suite.Benchmark.Filter(
		func(q *chipvqa.Question) bool { return len(q.Choices) == 4 })}
	r := eval.Runner{}
	guess := evaluate(b, r, guessBaseline{}, mc).Pass1()
	abstain := evaluate(b, r, abstainBaseline{}, mc).Pass1()
	b.Logf("random guess on MC: %.2f   abstain: %.2f   floor contribution: %.2f",
		guess, abstain, guess-abstain)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evaluate(b, r, guessBaseline{}, mc)
	}
}

type guessBaseline struct{}

func (guessBaseline) Name() string { return "random-guess" }
func (guessBaseline) Answer(q *chipvqa.Question, _ chipvqa.InferenceOptions) string {
	if len(q.Choices) == 4 {
		return string(rune('a' + rng.Pick(4, "bench-guess", q.ID)))
	}
	return "unknown"
}

type abstainBaseline struct{}

func (abstainBaseline) Name() string                                              { return "abstain" }
func (abstainBaseline) Answer(*chipvqa.Question, chipvqa.InferenceOptions) string { return "" }

// Ablation — perception vs knowledge bottleneck: sweep the perception
// policy at fixed solve calibration; the pass rate barely moves at full
// resolution (the LLM backbone is the bottleneck, the paper's second
// finding) but collapses at 16x as perception tightens.
func BenchmarkAblationBottleneck(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	m, err := suite.Model("GPT4o")
	if err != nil {
		b.Fatal(err)
	}
	sim := m.(*vlm.SimulatedVLM)
	defer sim.SetPerception(vlm.DefaultPerception())
	for _, thr := range []float64{0.4, 0.6, 0.8, 1.0} {
		p := vlm.DefaultPerception()
		p.RecallThreshold = thr
		sim.SetPerception(p)
		r1 := eval.Runner{Opts: eval.InferenceOptions{DownsampleFactor: 1}}
		r16 := eval.Runner{Opts: eval.InferenceOptions{DownsampleFactor: 16}}
		b.Logf("recall threshold %.1f: pass@1 %.2f at 1x, %.2f at 16x",
			thr, evaluate(b, r1, sim, suite.Benchmark).Pass1(),
			evaluate(b, r16, sim, suite.Benchmark).Pass1())
	}
	sim.SetPerception(vlm.DefaultPerception())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := eval.Runner{Opts: eval.InferenceOptions{DownsampleFactor: 16}}
		evaluate(b, r, sim, suite.Benchmark)
	}
}

// Ablation — judge strictness: the hybrid judge versus exact-match-only.
func BenchmarkAblationJudge(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	m, err := suite.Model("GPT4o")
	if err != nil {
		b.Fatal(err)
	}
	lenient := eval.Runner{Judge: eval.Judge{}}
	strict := eval.Runner{Judge: eval.Judge{Strict: true}}
	b.Logf("hybrid judge: %.2f   strict judge: %.2f",
		evaluate(b, lenient, m, suite.Benchmark).Pass1(),
		evaluate(b, strict, m, suite.Benchmark).Pass1())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evaluate(b, strict, m, suite.Benchmark)
	}
}

// Ablation — agent description fidelity: sweep the designer boost and
// watch the Table III gain move; at boost 0 the agent can only lose
// (information-lossy text relay), explaining the Manufacture regression.
func BenchmarkAblationAgentFidelity(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	m, err := suite.Model("GPT4o")
	if err != nil {
		b.Fatal(err)
	}
	tool := m.(*vlm.SimulatedVLM)
	r := eval.Runner{}
	base := evaluate(b, r, tool, suite.Benchmark).Pass1()
	for _, boost := range []float64{0, 0.1, 0.21, 0.4} {
		ag := agent.New(tool)
		ag.Cfg.DesignerBoostMC = boost
		rep := evaluate(b, r, ag, suite.Benchmark)
		b.Logf("designer boost %.2f: agent %.2f (GPT4o direct %.2f)", boost, rep.Pass1(), base)
	}
	b.ResetTimer()
	ag := agent.New(tool)
	for i := 0; i < b.N; i++ {
		evaluate(b, r, ag, suite.Benchmark)
	}
}

// Extension — extended-collection generation (the paper's future-work
// dataset-collection direction): generate and evaluate a 50-question
// fold.
func BenchmarkExtendedCollection(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	ext, err := suite.Extended("bench-fold", 10)
	if err != nil {
		b.Fatal(err)
	}
	m, err := suite.Model("GPT4o")
	if err != nil {
		b.Fatal(err)
	}
	r := eval.Runner{}
	b.Logf("extended fold: %d questions, GPT4o Pass@1 = %.2f",
		ext.Len(), evaluate(b, r, m, ext).Pass1())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fold, err := suite.Extended("bench-fold", 10)
		if err != nil {
			b.Fatal(err)
		}
		evaluate(b, r, m, fold)
	}
}

// Extension — domain-adaptation learning curve (the paper's future-work
// VLM-training direction): fine-tune LLaVA-7b on nested folds and
// evaluate held-out.
func BenchmarkFineTuneStudy(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	m, err := suite.Model("LLaVA-7b")
	if err != nil {
		b.Fatal(err)
	}
	base := m.(*vlm.SimulatedVLM)
	pool, err := suite.Extended("train-pool", 30)
	if err != nil {
		b.Fatal(err)
	}
	test, err := suite.Extended("test-fold", 10)
	if err != nil {
		b.Fatal(err)
	}
	curve, err := vlm.LearningCurve(context.Background(), base, pool, test, []int{0, 10, 30}, vlm.DefaultTraining())
	if err != nil {
		b.Fatal(err)
	}
	for _, pt := range curve {
		b.Logf("train %2d/category: held-out Pass@1 = %.3f", pt.TrainPerCategory, pt.Pass1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vlm.LearningCurve(context.Background(), base, pool, test, []int{0, 10, 30}, vlm.DefaultTraining()); err != nil {
			b.Fatal(err)
		}
	}
}

// Extension — statistical comparison machinery: bootstrap CI + paired
// McNemar on the Table II leaders.
func BenchmarkStatisticalComparison(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	res, cis, err := suite.CompareContext(context.Background(), "GPT4o", "LLaMA-3.2-90B")
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("GPT4o %s vs LLaMA-3.2-90B %s; McNemar %s", cis[0], cis[1], res)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := suite.CompareContext(context.Background(), "GPT4o", "LLaMA-3.2-90B"); err != nil {
			b.Fatal(err)
		}
	}
}

// Extension — item analysis: per-question difficulty and discrimination
// across the twelve models (the evidence behind the paper's
// "comprehensive difficulties" claim).
func BenchmarkItemAnalysis(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	r := eval.Runner{}
	var reports []*chipvqa.Report
	for _, name := range suite.ModelNames() {
		m, err := suite.Model(name)
		if err != nil {
			b.Fatal(err)
		}
		reports = append(reports, evaluate(b, r, m, suite.Benchmark))
	}
	items, err := eval.ItemAnalysis(reports)
	if err != nil {
		b.Fatal(err)
	}
	unsolved := 0
	for _, it := range items {
		if it.Difficulty == 0 {
			unsolved++
		}
	}
	b.Logf("%d/%d questions unsolved by every model; hardest: %s",
		unsolved, len(items), eval.HardestItems(items, 1)[0].QuestionID)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.ItemAnalysis(reports); err != nil {
			b.Fatal(err)
		}
	}
}

// Supporting substrate benchmark — out-of-order vs in-order execution on
// a mixed instruction stream (the ILP engine behind the Architecture
// questions).
func BenchmarkOoOvsInOrder(b *testing.B) {
	prog := []arch.Instr{
		{Op: arch.OpLoad, Dest: 1, Src1: 9},
		{Op: arch.OpALU, Dest: 2, Src1: 8},
		{Op: arch.OpALU, Dest: 3, Src1: 8},
		{Op: arch.OpALU, Dest: 4, Src1: 1},
		{Op: arch.OpLoad, Dest: 5, Src1: 9},
		{Op: arch.OpALU, Dest: 6, Src1: 5},
		{Op: arch.OpALU, Dest: 7, Src1: 2, Src2: 3},
		{Op: arch.OpStore, Src1: 7, Src2: 9},
	}
	cfg := arch.DefaultOoO()
	ooo, err := arch.SimulateOoO(prog, cfg)
	if err != nil {
		b.Fatal(err)
	}
	inOrder, err := arch.InOrderBaselineCycles(prog, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("OoO %d cycles vs in-order %d cycles (speedup %.2fx)",
		ooo.Cycles, inOrder, float64(inOrder)/float64(ooo.Cycles))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arch.SimulateOoO(prog, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Supporting micro-benchmarks: the raster pipeline the real benchmark
// images flow through (render + downsample).
func BenchmarkRenderPipeline(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	q := suite.Benchmark.Questions[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img := visual.Render(q.Visual)
		_ = visual.Downsample(img, 8)
	}
}

// The span raster kernel cold: every question's scene rasterised from
// scratch into a caller-owned frame that is dropped. No cache — this is
// the kernel itself, amortised over all 142 figures.
func BenchmarkRenderAllCold(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range suite.Benchmark.Questions {
			_ = visual.Render(q.Visual)
		}
	}
}

// The zero-copy read path: QuestionImage returns the cache-shared frame
// directly, so a warm call is a map lookup.
func BenchmarkQuestionImageWarm(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	for _, q := range suite.Benchmark.Questions {
		_ = chipvqa.QuestionImage(q, 8) // prime the cache
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range suite.Benchmark.Questions {
			_ = chipvqa.QuestionImage(q, 8)
		}
	}
}

// The cloning read path: RenderQuestion pays a fresh row-copy per call
// for a mutable frame. The gap to BenchmarkQuestionImageWarm is the
// price of the private copy.
func BenchmarkRenderQuestionClone(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	for _, q := range suite.Benchmark.Questions {
		_ = chipvqa.QuestionImage(q, 8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range suite.Benchmark.Questions {
			_ = chipvqa.RenderQuestion(q, 8)
		}
	}
}

// The separable downsample kernel alone, at the ablation factors.
func BenchmarkDownsample(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	img := visual.Render(suite.Benchmark.Questions[0].Visual)
	for _, f := range []int{2, 8, 16} {
		b.Run(fmt.Sprintf("%dx", f), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = visual.Downsample(img, f)
			}
		})
	}
}

// The same pipeline through the scene cache: after the first iteration
// every render and downsample is a lookup. The gap to
// BenchmarkRenderPipeline is the per-question win the evaluation engine
// gets on repeated sweeps.
func BenchmarkRenderPipelineCached(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	q := suite.Benchmark.Questions[0]
	cache := visual.NewSceneCache()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cache.Downsampled(q.Visual, 8)
	}
}

// §IV-B sweep at 16x with the scene cache shared across models: the
// per-scene legibility tables are derived once, not 12 times.
func BenchmarkResolutionSweepAllModels(b *testing.B) {
	suite := chipvqa.MustNewSuite()
	suite.Workers = -1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range suite.ModelNames() {
			if _, err := suite.EvaluateAtResolutionContext(context.Background(), name, 16); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBuildBenchmark times full dataset generation (all five
// discipline engines).
func BenchmarkBuildBenchmark(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = chipvqa.MustNewSuite()
	}
}

func init() {
	// Fail fast in benchmarks if the benchmark composition drifts.
	s := chipvqa.MustNewSuite()
	if s.Benchmark.Len() != 142 {
		panic(fmt.Sprintf("benchmark has %d questions", s.Benchmark.Len()))
	}
}
