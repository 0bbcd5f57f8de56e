// Command perfbench is the repository benchmark: three workloads that
// drive the ChipVQA program only through its packages' public
// functions and print end-to-end metrics (or, with -trace 1, per-layer
// metrics) as one JSON line. See README.md for the workloads, metrics
// and how to run them.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	procs    int
	out      string
	// heapOps is serve-mix's warm-up operation count (heapOps by
	// default; the tests use fewer).
	heapOps int
}

// workload is one benchmark workload. run times setup, computes
// references, warms up, then calls measure once per timed phase.
type workload interface {
	// setup builds the program state: benchmark, zoo, calibration,
	// server. It is what setup_s times, and runs several times.
	setup() error
	// reference computes the expected outputs from a serial run.
	reference() error
	// warm runs the untimed warm-up before a timed phase. Its
	// operations are checked like timed ones.
	warm(ph *phase)
	// measure runs operations until the deadline, checking each one.
	// tr is nil in untraced phases.
	measure(deadline time.Time, tr *tracer, ph *phase)
	// e2e adds workload-specific end-to-end values (events_per_s) and
	// may replace the generic ones.
	e2e(ph *phase, out map[string]float64)
	// layers fills per-layer metrics after a traced phase.
	layers(tr *tracer, ph *phase, out map[string]float64)
	close()
}

var workloads = map[string]func(config) workload{
	"paper-sweep": newPaperSweep,
	"fold-stream": newFoldStream,
	"serve-mix":   newServeMix,
}

const (
	// setup runs at least setupReps times and until setupTime has been
	// spent in it (at most maxSetupReps times); setup_s is the median.
	// Set-up takes milliseconds, so many repetitions cost little, and a
	// burst of host noise moves few of them.
	setupReps    = 21
	maxSetupReps = 1000
	setupTime    = time.Second
	// warmUp is the time-based warm-up of paper-sweep and fold-stream.
	warmUp = 200 * time.Millisecond
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: paper-sweep, fold-stream or serve-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "timed seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = print per-layer metrics from a traced run")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for span dumps")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.procs = runtime.NumCPU()
	cfg.heapOps = heapOps

	mk, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", cfg.workload)
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(cfg, mk(cfg), os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one invocation and returns its result; human-readable
// lines (provenance, sample counts, failures) go to log.
func run(cfg config, w workload, log io.Writer) (*result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gomaxprocs(cfg)))
	defer w.close()
	prov := provenance(cfg)
	fmt.Fprintf(log, "# provenance %s\n", prov)

	var setups []float64
	var spent time.Duration
	for i := 0; i < maxSetupReps && (i < setupReps || spent < setupTime); i++ {
		if i > 0 {
			w.close()
		}
		runtime.GC()
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(start)
		spent += d
		setups = append(setups, d.Seconds())
	}
	fmt.Fprintf(log, "# setup runs %d\n", len(setups))
	if err := w.reference(); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}

	res := &result{Metrics: make(map[string]metric)}
	if !cfg.trace {
		ph, e2e, err := timedPhase(cfg, w, nil, cfg.seconds)
		if err != nil {
			return nil, err
		}
		e2e["setup_s"] = median(setups)
		for _, m := range e2eMetrics {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
		report(log, ph, res)
		return res, nil
	}

	// Traced run: an untraced half, then a traced half of the same
	// work; their events_per_s ratio is the tracing overhead.
	plain, plainE2E, err := timedPhase(cfg, w, nil, cfg.seconds/2)
	if err != nil {
		return nil, err
	}
	tr := newTracer(cfg.workload != "serve-mix")
	traced, tracedE2E, err := timedPhase(cfg, w, tr, cfg.seconds/2)
	if err != nil {
		return nil, err
	}
	layers := make(map[string]float64)
	w.layers(tr, traced, layers)
	layers["trace.overhead"] = plainE2E["events_per_s"]/tracedE2E["events_per_s"] - 1
	layers["trace.spans"] = float64(tr.spanCount())
	path, err := tr.write(filepath.Join(cfg.out, "traces"), fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(log, "# spans %s\n", path)
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metric{layers[m.name], m.unit}
	}
	plain.attempted += traced.attempted
	plain.failed += traced.failed
	plain.failures = append(plain.failures, traced.failures...)
	report(log, plain, res)
	return res, nil
}

// timedPhase warms up, runs one measured phase and derives its
// end-to-end metrics.
func timedPhase(cfg config, w workload, tr *tracer, seconds float64) (*phase, map[string]float64, error) {
	warm := newPhase()
	w.warm(warm)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ph := newPhase()
	w.measure(ph.start.Add(time.Duration(seconds*float64(time.Second))), tr, ph)
	ph.wall = time.Since(ph.start)
	runtime.ReadMemStats(&after)
	if ph.attempted == 0 {
		return nil, nil, errors.New("no operation completed in the timed phase")
	}
	out := make(map[string]float64)
	counts := ph.latencyMetrics(out)
	if ph.events > 0 {
		out["allocs_per_event"] = float64(after.Mallocs-before.Mallocs) / float64(ph.events)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	out["live_heap_mib"] = float64(after.HeapAlloc) / (1 << 20)
	w.e2e(ph, out)
	// Warm-up operations are checked like timed ones; their outcomes
	// count towards attempted and failed but not towards any timing.
	ph.attempted += warm.attempted
	ph.failed += warm.failed
	ph.failures = append(warm.failures, ph.failures...)
	traced := "untraced"
	if tr != nil {
		traced = "traced"
	}
	fmt.Fprintf(os.Stderr, "# %s phase %.1fs: %s samples %v\n", traced, ph.wall.Seconds(), ph, counts)
	return ph, out, nil
}

// report prints failure details and fills the result's counters. A run
// is correct when every checked operation matched its reference.
func report(log io.Writer, ph *phase, res *result) {
	res.Attempted, res.Failed = ph.attempted, ph.failed
	res.Correct = ph.failed == 0
	fmt.Fprintf(log, "# failed_share %g (%d/%d)\n", ph.failedShare(), ph.failed, ph.attempted)
	for _, f := range ph.failures {
		fmt.Fprintf(log, "# failure: %s\n", f)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(log, "# %-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// gomaxprocs is the workload's GOMAXPROCS: nproc, except for
// fold-stream, whose work is serial (see foldProcs).
func gomaxprocs(cfg config) int {
	if cfg.workload == "fold-stream" {
		return foldProcs
	}
	return cfg.procs
}

// provenance identifies the box, toolchain and code a result came
// from. The repository's BENCH_1-4.json files are single-shot
// snapshots taken at num_cpu 1 with another harness; their numbers are
// not comparable with these.
func provenance(cfg config) string {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	b, _ := json.Marshal(map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"tree":       treeDigest("."),
		"note":       "BENCH_1-4.json are single-shot num_cpu:1 snapshots and are not comparable",
	})
	return string(b)
}

// treeDigest hashes the Go sources and module files under root, so a
// result names the code it measured even outside a git checkout.
func treeDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
