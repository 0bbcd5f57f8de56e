package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Sample families of the end-to-end latencies. Each workload fills the
// families with its own unit of work; README.md gives the per-workload
// meaning of each.
const (
	famSweep = "sweep"
	famRun   = "run"
	famTTFE  = "ttfe"
	famRead  = "read"
)

var latencyFamilies = []string{famSweep, famRun, famTTFE, famRead}

const (
	// windows is how many equal time slices of a timed phase a latency
	// family's quantiles are taken in; the median over the slices is
	// reported. A burst of host CPU steal shorter than half the phase
	// then does not move them.
	windows = 5
	// minWindowSamples is the fewest samples per slice for slicing, so
	// that each slice's p90 has ten samples above it; a family with
	// fewer is measured over the whole phase.
	minWindowSamples = 100
)

// e2eMetrics and layerMetrics list every metric the harness prints, in
// print order, with its unit. BENCHMARK.json names the same sets.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"events_per_s", "1/s"},
	{"allocs_per_event", "count"},
	{"sweep_p50_ms", "ms"},
	{"sweep_p90_ms", "ms"},
	{"run_p50_ms", "ms"},
	{"run_p90_ms", "ms"},
	{"ttfe_p50_ms", "ms"},
	{"ttfe_p90_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"read_p90_ms", "ms"},
	{"live_heap_mib", "MiB"},
}

var layerMetrics = []struct{ name, unit string }{
	{"vlm.answer_ns", "ns"},
	{"vlm.answer_allocs", "count"},
	{"agent.answer_ns", "ns"},
	{"eval.judge_ns", "ns"},
	{"eval.judge_allocs", "count"},
	{"eval.deliver_ns", "ns"},
	{"eval.busy_share", "share"},
	{"eval.shard_us_per_q", "us"},
	{"adaptive.ns_per_q", "ns"},
	{"adaptive.questions_asked", "count"},
	{"adaptive.grid_rank_agreement", "share"},
	{"core.gen_us_per_q", "us"},
	{"dataset.encode_us_per_q", "us"},
	{"dataset.decode_us_per_q", "us"},
	{"dataset.bytes_per_q", "B"},
	{"visual.hit_ratio", "share"},
	{"visual.evictions", "count"},
	{"visual.peak_bytes", "B"},
	{"serve.launch_p90_ms", "ms"},
	{"serve.report_p90_ms", "ms"},
	{"serve.image_p90_ms", "ms"},
	{"serve.browse_p90_ms", "ms"},
	{"serve.client_gap_ms", "ms"},
	{"serve.queued_max", "count"},
	{"serve.pool_free_min", "count"},
	{"serve.bytes_per_event", "B"},
	{"serve.runs_retained", "count"},
	{"serve.heap_kib_per_run", "KiB"},
	{"serve.refused", "count"},
	{"loadgen.rate_per_s", "1/s"},
	{"loadgen.late_p90_ms", "ms"},
	{"loadgen.valid", "count"},
	{"loadgen.run_p90_ms", "ms"},
	{"loadgen.read_p90_ms", "ms"},
	{"trace.overhead", "share"},
	{"trace.worker_gap_share", "share"},
	{"trace.spans", "count"},
}

// phase accumulates one timed phase. Workloads that record from
// several goroutines (serve-mix clients) share it, so every method
// locks.
type phase struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string
	events    int64
	// busy is the summed duration of closed-loop operations and rates
	// their judged events per second, one per operation.
	busy    time.Duration
	rates   []float64
	start   time.Time
	wall    time.Duration
	samples map[string][]float64
	// at holds when each sample was taken, parallel to samples.
	at map[string][]time.Duration
}

func newPhase() *phase {
	return &phase{start: time.Now(), samples: make(map[string][]float64), at: make(map[string][]time.Duration)}
}

// sample records one latency in milliseconds.
func (p *phase) sample(family string, d time.Duration) {
	p.mu.Lock()
	p.samples[family] = append(p.samples[family], ms(d))
	p.at[family] = append(p.at[family], time.Since(p.start))
	p.mu.Unlock()
}

// op counts one attempted operation; a non-nil err counts it failed.
func (p *phase) op(err error) {
	p.mu.Lock()
	p.attempted++
	if err != nil {
		p.failed++
		if len(p.failures) < 8 {
			p.failures = append(p.failures, err.Error())
		}
	}
	p.mu.Unlock()
}

// addEvents counts n judged events; a closed-loop operation passes its
// duration, an open-loop one 0.
func (p *phase) addEvents(n int, busy time.Duration) {
	p.mu.Lock()
	p.events += int64(n)
	p.busy += busy
	if busy > 0 {
		p.rates = append(p.rates, float64(n)/busy.Seconds())
	}
	p.mu.Unlock()
}

// sampleKind records one latency of a family whose operations come in
// kinds of very different size (paper-sweep's eight evaluation calls).
// The family's quantiles are then the geometric mean over the kinds of
// each kind's quantile: a quantile of the mixture falls in the gap
// between two kinds' modes, where the least host noise moves it most.
func (p *phase) sampleKind(family string, kind int, d time.Duration) {
	p.sample(fmt.Sprintf("%s/%d", family, kind), d)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// latencyMetrics fills the p50/p90 pair of each family and returns the
// sample counts for the provenance line.
func (p *phase) latencyMetrics(out map[string]float64) map[string]int {
	counts := make(map[string]int)
	for _, f := range latencyFamilies {
		keys := p.kinds(f)
		for _, k := range keys {
			counts[f] += len(p.samples[k])
		}
		out[f+"_p50_ms"] = p.familyQuantile(keys, 0.50)
		out[f+"_p90_ms"] = p.familyQuantile(keys, 0.90)
	}
	return counts
}

// kinds returns the sample keys of family: its per-kind keys when it
// was sampled with sampleKind, else the family itself.
func (p *phase) kinds(family string) []string {
	var keys []string
	for k := range p.samples {
		if strings.HasPrefix(k, family+"/") {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return []string{family}
	}
	sort.Strings(keys)
	return keys
}

// familyQuantile is the geometric mean over keys of each key's
// windowed q-quantile.
func (p *phase) familyQuantile(keys []string, q float64) float64 {
	if len(keys) == 1 {
		return p.windowed(keys[0], q)
	}
	var logSum float64
	for _, k := range keys {
		v := p.windowed(k, q)
		if v <= 0 {
			return 0
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(keys)))
}

// windowed returns the median over the phase's time slices of family's
// q-quantile in each slice, or the whole phase's q-quantile when a
// slice would hold fewer than minWindowSamples samples.
func (p *phase) windowed(family string, q float64) float64 {
	xs, at := p.samples[family], p.at[family]
	if len(xs) < windows*minWindowSamples || p.wall <= 0 {
		return quantile(append([]float64(nil), xs...), q)
	}
	slices := make([][]float64, windows)
	for i, x := range xs {
		k := min(int(float64(at[i])/float64(p.wall)*windows), windows-1)
		slices[k] = append(slices[k], x)
	}
	qs := make([]float64, 0, windows)
	for _, s := range slices {
		if len(s) > 0 {
			qs = append(qs, quantile(s, q))
		}
	}
	return median(qs)
}

func (p *phase) failedShare() float64 {
	if p.attempted == 0 {
		return 0
	}
	return float64(p.failed) / float64(p.attempted)
}

func (p *phase) String() string {
	return fmt.Sprintf("attempted=%d failed=%d events=%d", p.attempted, p.failed, p.events)
}
