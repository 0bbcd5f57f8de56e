package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"hash/crc32"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/visual"
	"repro/internal/vlm"
)

// fold-stream: a closed loop of passes over freshly generated extended
// folds. A pass streams a seeded fold out of core.StreamExtended shard
// by shard, encodes it with the CVQB codec into memory, then streams it
// back with dataset.StreamPack into Runner.EvaluateShardsContext for
// GPT4o at 8x under a 1 MiB scene-cache budget. Every question is new
// to the cache (entries are keyed by scene identity and each pass
// regenerates its scenes), so generation, the codec and cache misses
// dominate.

const (
	// A pass of 2400 questions takes about 100 ms, long against the
	// host's bursts of noise, so the pass-time p90 stays near the p50.
	foldPerCategory = 480
	foldShardSize   = 32
	foldFolds       = 3 // distinct fold seeds per run seed, cycled
	foldFactor      = 8
	foldCacheBudget = 1 << 20
	// foldWorkers is the timed passes' evaluation engine: serial. The
	// worker pool at nproc is what paper-sweep and serve-mix measure;
	// on 32-question shards it is no faster than serial on 2 vCPUs,
	// and each shard's join then waits for the slower vCPU, which
	// doubles the workload's exposure to host noise.
	foldWorkers = 1
	// foldProcs is fold-stream's GOMAXPROCS. With serial work a second
	// P only runs the collector's background marking, and the ~80
	// collections a second of this small heap would each wait for both
	// vCPUs to stop the world; on a shared host that ties every pass
	// to the slower vCPU for no gain in throughput.
	foldProcs = 1
)

type foldStream struct {
	cfg   config
	seeds []string
	model eval.Model

	refs []foldRef
	buf  bytes.Buffer
	next int
	// corruptRef, when set, alters every reference digest; the tests use
	// it to prove a mismatch counts as a failure.
	corruptRef bool

	// Traced-phase tallies for the per-layer metrics.
	questions                               int64
	genNS, encNS, decNS, shardNS, packBytes int64
	cacheBefore, cacheAfter                 visual.CacheStats
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type foldRef struct {
	reports   [32]byte
	packCRC   uint32
	questions int
}

// passOut is what one pass produces for checking.
type passOut struct {
	foldRef
	decoded int
}

func newFoldStream(cfg config) workload {
	w := &foldStream{cfg: cfg}
	for k := 0; k < foldFolds; k++ {
		w.seeds = append(w.seeds, fmt.Sprintf("fold-stream-%d-%d", cfg.seed, k))
	}
	return w
}

func (w *foldStream) setup() error {
	b, err := core.BuildBenchmark()
	if err != nil {
		return err
	}
	m, ok := vlm.NewZoo(b).Model("GPT4o")
	if !ok {
		return fmt.Errorf("zoo has no GPT4o")
	}
	w.model = m
	visual.Default.SetBudget(foldCacheBudget)
	visual.Default.Reset() // the peak-bytes check starts from an empty cache
	return nil
}

func (w *foldStream) close() {}

// reference runs each fold's pass serially.
func (w *foldStream) reference() error {
	w.refs = make([]foldRef, len(w.seeds))
	for k := range w.seeds {
		out, err := w.pass(k, 1, nil, nil)
		if err != nil {
			return err
		}
		w.refs[k] = out.foldRef
	}
	return nil
}

func (w *foldStream) warm(ph *phase) { w.measure(time.Now().Add(warmUp), nil, ph) }

func (w *foldStream) measure(deadline time.Time, tr *tracer, ph *phase) {
	if tr != nil {
		w.questions, w.genNS, w.encNS, w.decNS, w.shardNS, w.packBytes = 0, 0, 0, 0, 0, 0
		w.cacheBefore = visual.Default.Stats()
	}
	for time.Now().Before(deadline) {
		k := w.next % len(w.seeds)
		w.next++
		start := time.Now()
		out, err := w.pass(k, foldWorkers, tr, ph)
		d := time.Since(start)
		if err == nil {
			err = w.check(k, out)
		}
		ph.op(err)
		ph.sample(famSweep, d)
		ph.addEvents(out.questions, d)
	}
	if tr != nil {
		w.cacheAfter = visual.Default.Stats()
	}
}

// check compares a pass with its fold's serial reference.
func (w *foldStream) check(k int, out passOut) error {
	ref := w.refs[k]
	if w.corruptRef {
		ref.reports[0] ^= 0xff
	}
	switch {
	case out.decoded != ref.questions:
		return fmt.Errorf("fold-stream: decoded %d of %d questions", out.decoded, ref.questions)
	case out.packCRC != ref.packCRC:
		return fmt.Errorf("fold-stream: pack CRC %08x, reference %08x", out.packCRC, ref.packCRC)
	case out.reports != ref.reports:
		return fmt.Errorf("fold-stream: report digest %x differs from the serial reference %x", out.reports[:6], ref.reports[:6])
	}
	// An accounting invariant: the cache records its peak after
	// evicting down to the budget, so this only catches a cache that
	// stops evicting. Pixels still pinned by readers after eviction are
	// not in PeakBytes.
	if s := visual.Default.Stats(); s.PeakBytes > foldCacheBudget {
		return fmt.Errorf("fold-stream: scene cache peak %d B over its %d B budget", s.PeakBytes, foldCacheBudget)
	}
	return nil
}

// pass generates fold k, packs it, and evaluates it from the pack. A
// phase receives one run sample per shard pipeline, one read sample
// per shard decoded, and the shard's time to first event.
func (w *foldStream) pass(k, workers int, tr *tracer, ph *phase) (passOut, error) {
	var out passOut
	model := w.model
	if tr != nil {
		model = traced([]eval.Model{w.model}, "vlm.answer", tr)[0]
	}
	t0 := time.Now()
	var first atomic.Int64 // first event of the current shard, ns since t0 plus one
	runner := eval.Runner{
		Workers: workers,
		Opts:    eval.InferenceOptions{DownsampleFactor: foldFactor},
		Observer: eval.ObserverFunc(func(ev eval.Event) {
			if first.Load() == 0 {
				first.CompareAndSwap(0, int64(time.Since(t0))+1)
			}
			if tr != nil {
				tr.observe(ev)
			}
		}),
	}

	w.buf.Reset()
	pw := dataset.NewPackWriter(&w.buf, w.seeds[k])
	var encNS int64
	genStart := time.Now()
	err := core.StreamExtended(w.seeds[k], foldPerCategory, foldShardSize, func(sh dataset.Shard) error {
		s := time.Now()
		err := pw.WriteShard(sh)
		encNS += int64(time.Since(s))
		out.questions += len(sh.Questions)
		return err
	})
	genNS := int64(time.Since(genStart)) - encNS
	if err != nil {
		return out, err
	}
	s := time.Now()
	if err := pw.Close(); err != nil {
		return out, err
	}
	encNS += int64(time.Since(s))
	out.packCRC = crc32.Checksum(w.buf.Bytes(), castagnoli)

	var decNS, shardNS int64
	stream := func(yield func(dataset.Shard) error) error {
		last := time.Now()
		// StreamPack verifies the trailer's record count and CRC-32C
		// after the last shard, so a nil return is the round-trip check.
		return dataset.StreamPack(bytes.NewReader(w.buf.Bytes()), foldShardSize, func(sh dataset.Shard) error {
			got := time.Now()
			read := got.Sub(last)
			decNS += int64(read)
			out.decoded += len(sh.Questions)
			first.Store(0)
			var span, spanStart int64
			if tr != nil {
				span, spanStart = tr.begin()
			}
			err := yield(sh)
			last = time.Now()
			shardNS += int64(last.Sub(got))
			if tr != nil {
				tr.end("eval.shard", span, spanStart)
			}
			if ph != nil {
				ph.sample(famRead, read)
				ph.sample(famRun, last.Sub(got))
				if f := first.Load(); f != 0 {
					ph.sample(famTTFE, time.Duration(f-1)-got.Sub(t0))
				}
			}
			return err
		})
	}
	reports := []*eval.Report{{}}
	if err := runner.EvaluateShardsContext(context.Background(), []eval.Model{model}, stream, reports); err != nil {
		return out, err
	}
	h := sha256.New()
	digestReports(h, reports)
	copy(out.reports[:], h.Sum(nil))
	if tr != nil {
		w.questions += int64(out.questions)
		w.genNS += genNS
		w.encNS += encNS
		w.decNS += decNS
		w.shardNS += shardNS
		w.packBytes += int64(w.buf.Len())
	}
	return out, nil
}

func (w *foldStream) e2e(ph *phase, out map[string]float64) {
	out["events_per_s"] = median(ph.rates)
}

func (w *foldStream) layers(tr *tracer, ph *phase, out map[string]float64) {
	out["vlm.answer_ns"] = tr.meanNS("vlm.answer")
	tr.replayLayers(out)
	out["eval.deliver_ns"] = tr.deliverMeanNS() - out["eval.judge_ns"]
	if q := float64(w.questions); q > 0 {
		out["core.gen_us_per_q"] = float64(w.genNS) / q / 1e3
		out["dataset.encode_us_per_q"] = float64(w.encNS) / q / 1e3
		out["dataset.decode_us_per_q"] = float64(w.decNS) / q / 1e3
		out["dataset.bytes_per_q"] = float64(w.packBytes) / q
		out["eval.shard_us_per_q"] = float64(w.shardNS) / q / 1e3
	}
	_, vlmNS := tr.sum("vlm.answer")
	busy := (float64(vlmNS) + out["eval.judge_ns"]*float64(ph.events)) / (float64(ph.busy) * foldWorkers)
	out["eval.busy_share"] = busy
	out["trace.worker_gap_share"] = 1 - busy
	cacheLayers(w.cacheBefore, w.cacheAfter, out)
}
