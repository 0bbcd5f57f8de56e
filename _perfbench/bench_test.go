package main

import (
	"io"
	"testing"
	"time"
)

// testConfig is a short run of one workload.
func testConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 0.4, trace: trace, procs: 2, out: t.TempDir(), heapOps: 100}
}

// TestSmoke runs every workload briefly, untraced and traced, and
// checks that it is correct and prints every metric it promises.
func TestSmoke(t *testing.T) {
	for name, mk := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := testConfig(t, name, trace)
			res, err := run(cfg, mk(cfg), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := e2eMetrics
			if trace {
				want = layerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q", name, trace, m.name, got.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, got.Value)
				}
			}
		}
	}
}

// TestChecksCanFail proves the correctness checks feed failed and
// attempted: a corrupted reference digest fails every operation it
// checks, and so does a forced error response from the daemon.
func TestChecksCanFail(t *testing.T) {
	cases := []struct {
		name     string
		workload string
		corrupt  func(workload)
	}{
		{"paper-sweep digest", "paper-sweep", func(w workload) { w.(*paperSweep).corruptRef = true }},
		{"fold-stream digest", "fold-stream", func(w workload) { w.(*foldStream).corruptRef = true }},
		{"serve-mix digest", "serve-mix", func(w workload) { w.(*serveMix).corruptRef = true }},
		{"serve-mix 404", "serve-mix", func(w workload) { w.(*serveMix).badRead = true }},
	}
	for _, c := range cases {
		cfg := testConfig(t, c.workload, false)
		w := workloads[c.workload](cfg)
		c.corrupt(w)
		res, err := run(cfg, w, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
			t.Errorf("%s: correct=%v attempted=%d failed=%d, want failures counted", c.name, res.Correct, res.Attempted, res.Failed)
		}
	}
}

// TestRankAgreementCheck proves the acceptance tournament's full-grid
// rank agreement is checked on its own: a sweep whose reports match the
// reference but whose ranking misses one pair fails.
func TestRankAgreementCheck(t *testing.T) {
	w := &paperSweep{}
	if err := w.check(sweepOut{acceptGrid: 1}); err != nil {
		t.Fatalf("agreement 1: %v", err)
	}
	if err := w.check(sweepOut{acceptGrid: 65.0 / 66}); err == nil {
		t.Error("agreement below 1 passed the check")
	}
}

// TestWindowedQuantile shows that a burst confined to one time slice
// of a phase does not move the reported quantile, while the whole
// phase's quantile would.
func TestWindowedQuantile(t *testing.T) {
	p := newPhase()
	p.wall = 5 * time.Second
	n := windows * minWindowSamples * 2
	for i := 0; i < n; i++ {
		v := 1.0
		at := time.Duration(i) * p.wall / time.Duration(n)
		if at < p.wall/windows { // the first slice is all slow
			v = 10
		}
		p.samples[famRun] = append(p.samples[famRun], v)
		p.at[famRun] = append(p.at[famRun], at)
	}
	if got := p.windowed(famRun, 0.9); got != 1 {
		t.Errorf("windowed p90 = %v, want 1", got)
	}
	if got := quantile(append([]float64(nil), p.samples[famRun]...), 0.9); got != 10 {
		t.Errorf("whole-phase p90 = %v, want 10", got)
	}
}

// TestKindQuantile shows that a family sampled in two kinds reports the
// geometric mean of the kinds' quantiles, where the mixture's median
// would be one kind's slowest sample.
func TestKindQuantile(t *testing.T) {
	p := newPhase()
	for i := 0; i < 50; i++ {
		p.sampleKind(famRun, 0, time.Duration(1+i%2)*time.Millisecond) // 1 or 2 ms
		p.sampleKind(famRun, 1, 100*time.Millisecond)
	}
	p.wall = time.Second
	out := make(map[string]float64)
	counts := p.latencyMetrics(out)
	if counts[famRun] != 100 {
		t.Errorf("run samples = %d, want 100", counts[famRun])
	}
	if got := out["run_p50_ms"]; got < 9.99 || got > 10.01 {
		t.Errorf("run_p50_ms = %v, want 10 (geometric mean of 1 and 100)", got)
	}
	if got := quantile(append(append([]float64(nil), p.samples[famRun+"/0"]...), p.samples[famRun+"/1"]...), 0.5); got != 2 {
		t.Errorf("mixture p50 = %v, want 2", got)
	}
}
