package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/adaptive"
	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/visual"
	"repro/internal/vlm"
)

// paper-sweep: a closed loop of full paper sweeps at the default worker
// count. One sweep is Table II with and without choices (12 models x
// 142 questions each), the §IV-B resolution study at 8x and 16x, Table
// III (GPT4o and the agent, both collections), two adaptive
// tournaments, each on a fold calibrated in set-up, and the figures'
// image reads (every question's PNG at 1x, 8x and 16x from the scene
// cache). One tournament runs on a fold seeded from the run seed; the
// other runs on the fold of the repository's adaptive acceptance gate,
// where the program promises the full-grid ranking, and its rank
// agreement is checked.

const (
	// adaptiveFoldPerCategory sizes both tournament folds (the size of
	// the repository's adaptive acceptance study).
	adaptiveFoldPerCategory = 30
	// acceptanceFold is the fold seed of TestAdaptiveReproducesFullGridRanking.
	acceptanceFold = "fold-j"
)

var figureFactors = [3]int{1, 8, 16}

type paperSweep struct {
	cfg      config
	foldSeed string

	bench, chal *dataset.Benchmark
	models      []eval.Model
	gpt4o       eval.Model
	agent       eval.Model
	// cal is the seeded fold's calibration and accept the acceptance
	// fold's.
	cal, accept *adaptive.Calibration

	ref     sweepOut
	pngRefs map[pngKey]uint64
	// corruptRef alters the reference digest; the tests use it to prove
	// a mismatch counts as a failure.
	corruptRef bool

	// Traced-phase tallies for the per-layer metrics.
	asked, adaptiveNS, sweeps int64
	gridAgreement             float64
	cacheBefore, cacheAfter   visual.CacheStats
}

type pngKey struct {
	id     string
	factor int
}

// sweepOut is what one sweep produces for checking.
type sweepOut struct {
	digest [32]byte
	// grid and acceptGrid are the seeded and the acceptance tournament's
	// rank agreement with the full-grid ranking of their fold.
	grid, acceptGrid float64
	asked            int
	events           int
}

func newPaperSweep(cfg config) workload {
	return &paperSweep{cfg: cfg, foldSeed: fmt.Sprintf("paper-sweep-%d", cfg.seed)}
}

func (w *paperSweep) setup() error {
	b, err := core.BuildBenchmark()
	if err != nil {
		return err
	}
	zoo := vlm.NewZoo(b)
	gpt4o, ok := zoo.Model("GPT4o")
	if !ok {
		return fmt.Errorf("zoo has no GPT4o")
	}
	models := zoo.EvalModels()
	calibrate := func(seed string) (*adaptive.Calibration, error) {
		fold, err := core.BuildExtended(seed, adaptiveFoldPerCategory)
		if err != nil {
			return nil, err
		}
		return adaptive.NewCalibration(context.Background(), eval.Runner{Workers: w.cfg.procs}, models, fold)
	}
	cal, err := calibrate(w.foldSeed)
	if err != nil {
		return err
	}
	accept, err := calibrate(acceptanceFold)
	if err != nil {
		return err
	}
	w.bench, w.chal, w.models, w.gpt4o, w.agent = b, b.Challenge(), models, gpt4o, agent.New(gpt4o)
	w.cal, w.accept = cal, accept
	// The shared scene cache starts empty and unbounded, as in a fresh
	// process.
	visual.Default.SetBudget(0)
	visual.Default.Reset()
	return nil
}

func (w *paperSweep) close() {}

// reference runs one serial sweep; every timed sweep must match it.
func (w *paperSweep) reference() error {
	out, err := w.sweep(1, nil, nil)
	if err != nil {
		return err
	}
	w.ref = out
	w.pngRefs = make(map[pngKey]uint64)
	for _, q := range w.bench.Questions {
		for _, f := range figureFactors {
			data, err := visual.Default.EncodedPNG(q.Visual, f)
			if err != nil {
				return err
			}
			w.pngRefs[pngKey{q.ID, f}] = fnv64(data)
		}
	}
	return nil
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func (w *paperSweep) warm(ph *phase) { w.measure(time.Now().Add(warmUp), nil, ph) }

func (w *paperSweep) measure(deadline time.Time, tr *tracer, ph *phase) {
	var statsBefore visual.CacheStats
	if tr != nil {
		statsBefore = visual.Default.Stats()
		w.asked, w.adaptiveNS, w.sweeps = 0, 0, 0
	}
	for time.Now().Before(deadline) {
		start := time.Now()
		out, err := w.sweep(w.cfg.procs, tr, ph)
		d := time.Since(start)
		if err == nil {
			err = w.check(out)
		}
		ph.op(err)
		ph.sample(famSweep, d)
		ph.addEvents(out.events, d)
		if tr != nil {
			w.asked += int64(out.asked)
			w.sweeps++
			w.gridAgreement = out.grid
		}
	}
	if tr != nil {
		w.cacheBefore, w.cacheAfter = statsBefore, visual.Default.Stats()
	}
}

// check compares a sweep with the serial reference (identical reports,
// tournament standings included) and requires the acceptance
// tournament to reproduce its fold's full-grid ranking on every pair.
func (w *paperSweep) check(out sweepOut) error {
	want := w.ref.digest
	if w.corruptRef {
		want[0] ^= 0xff
	}
	if out.digest != want {
		return fmt.Errorf("paper-sweep: report digest %x differs from the serial reference %x", out.digest[:6], want[:6])
	}
	if out.acceptGrid != 1 {
		return fmt.Errorf("paper-sweep: adaptive rank agreement with the full grid on %s is %v, want 1", acceptanceFold, out.acceptGrid)
	}
	return nil
}

// sweep runs the paper's experiment set once. With a phase it records
// per-run latency (run start to reports returned) and, for the runs
// that carry an observer, time to first event. Table II and the
// resolution study run without an observer, as the CLI runs them;
// Table III and the tournament carry one, as the facade's live
// progress does. A traced sweep wraps every model and observes every
// run.
func (w *paperSweep) sweep(workers int, tr *tracer, ph *phase) (sweepOut, error) {
	models, gpt4o, ag := w.models, w.gpt4o, w.agent
	if tr != nil {
		models = asModels(traced(w.models, "vlm.answer", tr))
		gpt4o = traced([]eval.Model{w.gpt4o}, "vlm.answer", tr)[0]
		ag = traced([]eval.Model{w.agent}, "agent.answer", tr)[0]
	}
	var out sweepOut
	h := sha256.New()
	ctx := context.Background()
	// first holds the first observed event of the current run, as
	// nanoseconds since t0 plus one (0 = none yet).
	t0 := time.Now()
	var first atomic.Int64
	runner := func(factor int, observed bool) eval.Runner {
		r := eval.Runner{Workers: workers, Opts: eval.InferenceOptions{DownsampleFactor: factor}}
		if observed || tr != nil {
			r.Observer = eval.ObserverFunc(func(ev eval.Event) {
				if first.Load() == 0 {
					first.CompareAndSwap(0, int64(time.Since(t0))+1)
				}
				if tr != nil {
					tr.observe(ev)
				}
			})
		}
		return r
	}
	// timed runs evaluation call kind, records its latency and folds
	// its reports into the digest.
	timed := func(kind int, observed bool, fn func() ([]*eval.Report, error)) error {
		first.Store(0)
		var span, spanStart int64
		if tr != nil {
			span, spanStart = tr.begin()
		}
		start := time.Now()
		reps, err := fn()
		d := time.Since(start)
		if tr != nil {
			tr.end("eval.run", span, spanStart)
		}
		if err != nil {
			return err
		}
		if ph != nil {
			ph.sampleKind(famRun, kind, d)
			if f := first.Load(); observed && f != 0 {
				ph.sampleKind(famTTFE, kind, time.Duration(f-1)-start.Sub(t0))
			}
		}
		for _, r := range reps {
			out.events += len(r.Results)
		}
		digestReports(h, reps)
		return nil
	}
	grid := func(r eval.Runner, ms []eval.Model, b *dataset.Benchmark) func() ([]*eval.Report, error) {
		return func() ([]*eval.Report, error) { return r.EvaluateAllContext(ctx, ms, b) }
	}
	// tournament runs one adaptive tournament, folds its standings into
	// the digest and stores its full-grid rank agreement in agreement.
	tournament := func(cal *adaptive.Calibration, agreement *float64) func() ([]*eval.Report, error) {
		return func() ([]*eval.Report, error) {
			start := time.Now()
			res, err := cal.Run(ctx, runner(1, true), models, adaptive.Config{Seed: w.foldSeed})
			if err != nil {
				return nil, err
			}
			if tr != nil {
				w.adaptiveNS += int64(time.Since(start))
			}
			for _, s := range res.Standings {
				fmt.Fprintf(h, "%s\x00%d\x00%s\x00%x\n", s.Model, s.Asked, s.StopReason, math.Float64bits(s.Ability))
			}
			out.asked += res.QuestionsAsked
			*agreement = res.RankAgreement
			return res.Reports, nil
		}
	}
	steps := []struct {
		observed bool
		fn       func() ([]*eval.Report, error)
	}{
		{false, grid(runner(1, false), models, w.bench)},
		{false, grid(runner(1, false), models, w.chal)},
		{false, grid(runner(8, false), []eval.Model{gpt4o}, w.bench)},
		{false, grid(runner(16, false), []eval.Model{gpt4o}, w.bench)},
		{true, grid(runner(1, true), []eval.Model{gpt4o, ag}, w.bench)},
		{true, grid(runner(1, true), []eval.Model{gpt4o, ag}, w.chal)},
		{true, tournament(w.cal, &out.grid)},
		{true, tournament(w.accept, &out.acceptGrid)},
	}
	for i, st := range steps {
		if err := timed(i, st.observed, st.fn); err != nil {
			return out, err
		}
	}
	if err := w.figureReads(ph); err != nil {
		return out, err
	}
	copy(out.digest[:], h.Sum(nil))
	return out, nil
}

// figureReads fetches every question's PNG at the figure resolutions
// from the scene cache and checks the bytes against the reference. A
// read is a cache hit of well under a microsecond, so each sample is
// the mean of one question's three reads, which keeps the clock's own
// cost a small part of it.
func (w *paperSweep) figureReads(ph *phase) error {
	var pngs [3][]byte
	for _, q := range w.bench.Questions {
		start := time.Now()
		for i, f := range figureFactors {
			data, err := visual.Default.EncodedPNG(q.Visual, f)
			if err != nil {
				return err
			}
			pngs[i] = data
		}
		d := time.Since(start) / time.Duration(len(figureFactors))
		if ph == nil {
			continue
		}
		ph.sample(famRead, d)
		for i, f := range figureFactors {
			if want, ok := w.pngRefs[pngKey{q.ID, f}]; ok && fnv64(pngs[i]) != want {
				return fmt.Errorf("paper-sweep: %s at %dx: PNG bytes differ from the reference", q.ID, f)
			}
		}
	}
	return nil
}

func traced(ms []eval.Model, layer string, tr *tracer) []*tracedModel {
	ws := wrapModels(ms, layer)
	setTracer(ws, tr)
	return ws
}

// digestReports folds reports into h in a canonical byte form.
func digestReports(h interface{ Write([]byte) (int, error) }, reps []*eval.Report) {
	var buf []byte
	for _, r := range reps {
		buf = append(buf[:0], r.ModelName...)
		buf = append(buf, 0)
		for _, q := range r.Results {
			buf = append(buf, q.QuestionID...)
			buf = append(buf, 0)
			buf = append(buf, q.Response...)
			if q.Correct {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 2)
			}
		}
		h.Write(buf)
	}
}

func (w *paperSweep) e2e(ph *phase, out map[string]float64) {
	out["events_per_s"] = median(ph.rates)
}

// cacheLayers fills the visual.* metrics from two Stats snapshots.
func cacheLayers(before, after visual.CacheStats, out map[string]float64) {
	hits := float64(after.Hits - before.Hits)
	misses := float64(after.Misses - before.Misses)
	if hits+misses > 0 {
		out["visual.hit_ratio"] = hits / (hits + misses)
	}
	out["visual.evictions"] = float64(after.Evictions - before.Evictions)
	out["visual.peak_bytes"] = float64(after.PeakBytes)
}

func (w *paperSweep) layers(tr *tracer, ph *phase, out map[string]float64) {
	out["vlm.answer_ns"] = tr.meanNS("vlm.answer")
	out["agent.answer_ns"] = tr.meanNS("agent.answer")
	tr.replayLayers(out)
	out["eval.deliver_ns"] = tr.deliverMeanNS() - out["eval.judge_ns"]
	_, vlmNS := tr.sum("vlm.answer")
	_, agentNS := tr.sum("agent.answer")
	workerNS := float64(ph.busy) * float64(w.cfg.procs)
	busy := (float64(vlmNS+agentNS) + out["eval.judge_ns"]*float64(ph.events)) / workerNS
	out["eval.busy_share"] = busy
	out["trace.worker_gap_share"] = 1 - busy
	if w.asked > 0 {
		out["adaptive.ns_per_q"] = float64(w.adaptiveNS) / float64(w.asked)
		out["adaptive.questions_asked"] = float64(w.asked) / float64(w.sweeps) // both tournaments
	}
	out["adaptive.grid_rank_agreement"] = w.gridAgreement
	cacheLayers(w.cacheBefore, w.cacheAfter, out)
}
