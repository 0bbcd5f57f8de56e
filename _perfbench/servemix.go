package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"image/png"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/serve"
	"repro/internal/visual"
	"repro/internal/vlm"
)

// serve-mix: the daemon in-process behind a loopback listener, used by
// eight tenant sessions over at most nproc keep-alive connections in a
// closed loop. Writes are streamed NDJSON run launches followed by GET
// /report; reads are question browsing, question fetches and figure
// views (image.png at 1x, 8x and 16x) from a scene cache whose budget is
// below what the images occupy once rendered. The traced run adds an open-loop
// segment at a fixed rate (README.md gives why the timed phase is a
// closed loop).

const (
	// serveRate is the open-loop segment's fixed arrival rate, about
	// half the ~440 ops/s the closed loop sustains on a 2-CPU box.
	serveRate     = 220.0
	serveSessions = 8
	// serveCacheBudget is well below what the 142 x 3 images occupy
	// once rendered (about 170 MB, mostly full-resolution pixels the
	// PNG encoder reads), so a share of image reads miss and re-render.
	serveCacheBudget = 64 << 20
	browsePage       = 20
	// heapOps is the warm-up's operation count, after which serve-mix
	// takes live_heap_mib.
	heapOps = 2000
	// maxLateP90 marks the open-loop segment invalid: the generator
	// fell behind its schedule.
	maxLateP90 = 10 * time.Millisecond
)

type serveMix struct {
	cfg config

	bench, chal *dataset.Benchmark
	zoo         *vlm.Zoo
	models      []*tracedModel
	cache       *visual.SceneCache
	srv         *serve.Server
	hs          *http.Server
	served      chan struct{}
	base        string
	transport   *http.Transport
	client      *http.Client
	alog        *accessLog

	specs   []runSpec
	mix     []mixEntry
	pngRefs map[pngKey]pngRef

	// corruptRef alters every run reference and badRead sends every
	// question read to an unknown ID; the tests use them to prove both
	// count as failures.
	corruptRef, badRead bool

	// heapMiB is the live heap after the last warm-up.
	heapMiB float64

	// Per-phase tallies.
	mu          sync.Mutex
	runs        int64
	streamBytes int64
	refused     int64
	reads       []readSample
	heapBefore  uint64
	cacheBefore visual.CacheStats
	health      healthStats
}

// readSample is one read's client-side latency from its due time.
type readSample struct {
	op int
	ms float64
}

type runSpec struct {
	label string
	spec  serve.RunSpec
	ref   runRef
}

type runRef struct {
	events int
	lines  [32]byte
	report [32]byte
}

type pngRef struct {
	sum  uint64
	w, h int
}

func newServeMix(cfg config) workload {
	return &serveMix{cfg: cfg}
}

func (w *serveMix) setup() error {
	b, err := core.BuildBenchmark()
	if err != nil {
		return err
	}
	w.bench, w.chal, w.zoo = b, b.Challenge(), vlm.NewZoo(b)
	w.models = wrapModels(w.zoo.EvalModels(), "vlm.answer")
	w.cache = visual.NewSceneCache()
	w.cache.SetBudget(serveCacheBudget)
	w.alog = &accessLog{}
	w.specs = w.runSpecs()
	w.mix = serveMixEntries(len(w.specs))
	srv, err := serve.New(serve.Config{
		Benchmark:   w.bench,
		Challenge:   w.chal,
		Models:      asModels(w.models),
		PoolWorkers: w.cfg.procs,
		MaxSessions: serveSessions,
		Cache:       w.cache,
		AccessLog:   w.alog,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = srv
	w.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed after close()
	}()
	w.base = "http://" + ln.Addr().String()
	w.transport = &http.Transport{
		MaxConnsPerHost:     w.cfg.procs,
		MaxIdleConnsPerHost: w.cfg.procs,
		DisableCompression:  true,
	}
	w.client = &http.Client{Transport: w.transport}
	// Warm every adaptive fold's calibration: the server builds it on
	// the first run against the fold and caches it.
	for i := range w.specs {
		if w.specs[i].spec.Kind != "adaptive" {
			continue
		}
		if _, _, _, err := w.launch(&w.specs[i], "warm", -1, false); err != nil {
			return fmt.Errorf("warm calibration: %w", err)
		}
	}
	return nil
}

func (w *serveMix) close() {
	if w.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.hs.Shutdown(ctx) // a timeout still leaves Drain below to cancel runs
	w.srv.Drain(ctx)
	<-w.served
	w.transport.CloseIdleConnections()
	w.hs = nil
}

// runSpecs draws the run kinds of the mix from the seed: two of each
// of full-zoo eval, subset eval, challenge, downsampled eval, small
// extended and adaptive.
func (w *serveMix) runSpecs() []runSpec {
	r := rand.New(rand.NewPCG(uint64(w.cfg.seed), 0x5e4e))
	names := make([]string, len(w.models))
	for i, m := range w.models {
		names[i] = m.Name()
	}
	subset := func(k int) []string {
		p := r.Perm(len(names))[:k]
		out := make([]string, k)
		for i, j := range p {
			out[i] = names[j]
		}
		return out
	}
	var out []runSpec
	for v := 0; v < 2; v++ {
		out = append(out,
			runSpec{label: "full", spec: serve.RunSpec{Kind: "eval"}},
			runSpec{label: "subset", spec: serve.RunSpec{Kind: "eval", Models: subset(3)}},
			runSpec{label: "challenge", spec: serve.RunSpec{Kind: "challenge", Models: subset(4)}},
			runSpec{label: "downsampled", spec: serve.RunSpec{Kind: "eval", Models: subset(2), Downsample: []int{8, 16}[v]}},
			runSpec{label: "extended", spec: serve.RunSpec{Kind: "extended", Models: subset(3),
				Seed: fmt.Sprintf("serve-mix-%d-x%d", w.cfg.seed, v), PerCategory: 4, ShardSize: 8}},
			runSpec{label: "adaptive", spec: serve.RunSpec{Kind: "adaptive",
				Seed: fmt.Sprintf("serve-mix-%d-a%d", w.cfg.seed, v), PerCategory: 8}},
		)
	}
	return out
}

// serveMixEntries is the traffic mix: an equal share for each of the
// four operation kinds (browse, question, image, run), the run share
// spread evenly over the run specs. No recorded traffic of the daemon
// exists to take a mix from, so equal shares are an unverified
// default.
func serveMixEntries(nspecs int) []mixEntry {
	mix := []mixEntry{
		{kind: opBrowse, weight: 0.25},
		{kind: opQuestion, weight: 0.25},
		{kind: opImage, weight: 0.25},
	}
	for i := 0; i < nspecs; i++ {
		mix = append(mix, mixEntry{kind: opRun, spec: i, weight: 0.25 / float64(nspecs)})
	}
	return mix
}

// reference computes every run spec's expected event lines and report
// with a serial offline run, and every image's expected bytes.
func (w *serveMix) reference() error {
	for i := range w.specs {
		ref, err := w.offline(w.specs[i].spec)
		if err != nil {
			return fmt.Errorf("%s: %w", w.specs[i].label, err)
		}
		w.specs[i].ref = ref
	}
	cache := visual.NewSceneCache()
	w.pngRefs = make(map[pngKey]pngRef)
	for _, q := range w.bench.Questions {
		for _, f := range figureFactors {
			data, err := cache.EncodedPNG(q.Visual, f)
			if err != nil {
				return err
			}
			cfg, err := png.DecodeConfig(bytes.NewReader(data))
			if err != nil {
				return err
			}
			w.pngRefs[pngKey{q.ID, f}] = pngRef{sum: fnv64(data), w: cfg.Width, h: cfg.Height}
		}
	}
	return nil
}

// offline runs spec without the server, serially, rendering its events
// exactly as the server's stream does.
func (w *serveMix) offline(spec serve.RunSpec) (runRef, error) {
	var ref runRef
	all := w.zoo.EvalModels()
	models := all
	if len(spec.Models) > 0 {
		models = nil
		for _, name := range spec.Models {
			m, ok := w.zoo.Model(name)
			if !ok {
				return ref, fmt.Errorf("unknown model %q", name)
			}
			models = append(models, m)
		}
	}
	lines := sha256.New()
	obs := eval.ObserverFunc(func(ev eval.Event) {
		q := ev.Question
		re := serve.RunEvent{Seq: ref.events, Model: ev.Model.Name(), QuestionID: q.ID,
			Category: q.Category.Short(), Type: q.Type.String(), Response: ev.Response, Correct: ev.Correct}
		if ev.Adaptive {
			ability, se := ev.Ability, ev.AbilitySE
			re.Ability, re.AbilitySE, re.StopReason = &ability, &se, ev.StopReason
		}
		b, err := json.Marshal(re)
		if err != nil {
			panic(err) // RunEvent always marshals
		}
		lines.Write(append(b, '\n'))
		ref.events++
	})
	factor := spec.Downsample
	if factor == 0 {
		factor = 1
	}
	runner := eval.Runner{Workers: 1, Opts: eval.InferenceOptions{DownsampleFactor: factor}, Observer: obs}
	ctx := context.Background()
	var reports []*eval.Report
	var err error
	switch spec.Kind {
	case "adaptive":
		fold, ferr := core.BuildExtended(spec.Seed, spec.PerCategory)
		if ferr != nil {
			return ref, ferr
		}
		cal, cerr := adaptive.NewCalibration(ctx, eval.Runner{Workers: 1}, all, fold)
		if cerr != nil {
			return ref, cerr
		}
		res, rerr := cal.Run(ctx, runner, models, adaptive.Config{Seed: spec.Seed})
		if rerr != nil {
			return ref, rerr
		}
		reports = res.Reports
	case "extended":
		reports = make([]*eval.Report, len(models))
		for i := range reports {
			reports[i] = &eval.Report{}
		}
		err = runner.EvaluateShardsContext(ctx, models, func(yield func(dataset.Shard) error) error {
			return core.StreamExtended(spec.Seed, spec.PerCategory, spec.ShardSize, yield)
		}, reports)
	case "challenge":
		reports, err = runner.EvaluateAllContext(ctx, models, w.chal)
	default:
		reports, err = runner.EvaluateAllContext(ctx, models, w.bench)
	}
	if err != nil {
		return ref, err
	}
	body, err := serve.MarshalReports(reports)
	if err != nil {
		return ref, err
	}
	copy(ref.lines[:], lines.Sum(nil))
	ref.report = sha256.Sum256(body)
	return ref, nil
}

// warm runs the first cfg.heapOps operations of the seeded sequence, then
// takes the live heap. The registry keeps every run, so the heap grows
// with the operations done; after a fixed count it does not depend on
// how fast the server is. The first warm-up of a run starts from the
// server set-up left.
func (w *serveMix) warm(ph *phase) {
	w.loop(time.Time{}, w.cfg.heapOps, nil, ph)
	w.heapMiB = float64(liveHeap()) / (1 << 20)
}

func (w *serveMix) measure(deadline time.Time, tr *tracer, ph *phase) {
	w.loop(deadline, 0, tr, ph)
}

// loop drives the closed loop: nproc clients, one keep-alive
// connection each, send the next operation of the seeded sequence as
// soon as their previous one completes, until the deadline (if not
// zero) or until limit operations were sent (if not zero).
func (w *serveMix) loop(deadline time.Time, limit int, tr *tracer, ph *phase) {
	w.mu.Lock()
	w.runs, w.streamBytes, w.refused, w.reads = 0, 0, 0, nil
	w.mu.Unlock()
	setTracer(w.models, tr)
	defer setTracer(w.models, nil)
	var stopHealth func() healthStats
	if tr != nil {
		w.heapBefore = liveHeap()
		w.cacheBefore = w.cache.Stats()
		w.alog.start()
		stopHealth = w.pollHealth()
	}
	ops := schedule(w.cfg.seed, 1<<12, time.Second, w.mix, len(w.bench.Questions))
	var mu sync.Mutex
	next := 0
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.cfg.procs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if (limit > 0 && next >= limit) || (!deadline.IsZero() && !time.Now().Before(deadline)) {
					mu.Unlock()
					return
				}
				o := ops[next%len(ops)]
				o.id = next
				next++
				mu.Unlock()
				o.due = time.Since(start)
				w.execute(&o, start, tr, ph)
			}
		}()
	}
	wg.Wait()
	if tr != nil {
		w.health = stopHealth()
		w.alog.stop()
	}
}

// openLoop sends a seeded open-loop schedule at serveRate for the given
// span from one generator goroutine to nproc client goroutines and
// returns its latencies from due time (in open) and how late each send
// was.
func (w *serveMix) openLoop(span time.Duration, open *phase) []float64 {
	n := max(1, int(serveRate*span.Seconds()+0.5))
	ops := schedule(w.cfg.seed, n, span, w.mix, len(w.bench.Questions))
	queue := make(chan *op, len(ops)) // sized to the number of sends
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < w.cfg.procs; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range queue {
				w.execute(o, start, nil, open)
			}
		}()
	}
	late := generate(start, ops, queue)
	wg.Wait()
	return late
}

// execute runs one operation on a client goroutine and records it.
func (w *serveMix) execute(o *op, start time.Time, tr *tracer, ph *phase) {
	due := start.Add(o.due)
	var id, spanStart int64
	if tr != nil {
		id, spanStart = tr.ids.Add(1), tr.now()
	}
	var err error
	layer := "client.read"
	if o.kind == opRun {
		layer = "client.run"
		err = w.runOp(o, due, ph)
	} else {
		err = w.readOp(o, due, ph)
	}
	if tr != nil {
		tr.record(span{ID: id, Parent: -1, Event: int64(o.id), Layer: layer, Start: spanStart, End: tr.now()})
	}
	ph.op(err)
}

// runOp launches a streamed run, checks its events and report against
// the offline reference, and records run, ttfe and (full-zoo) sweep
// latencies from the due time (the send time in the closed loop).
func (w *serveMix) runOp(o *op, due time.Time, ph *phase) error {
	rs := &w.specs[o.spec]
	session := fmt.Sprintf("tenant-%d", o.id%serveSessions)
	n, first, nbytes, err := w.launch(rs, session, o.id, true)
	done := time.Now()
	if err != nil {
		return err
	}
	ph.sample(famRun, done.Sub(due))
	ph.sample(famTTFE, first.Sub(due))
	if rs.label == "full" {
		ph.sample(famSweep, done.Sub(due))
	}
	ph.addEvents(n, 0)
	w.mu.Lock()
	w.runs++
	w.streamBytes += nbytes
	w.mu.Unlock()
	return nil
}

// launch POSTs a streamed run, reads every event line and the /report
// body, checks them against the reference when check is set, and
// returns the event count, the time the first event line arrived and
// the stream's byte count.
func (w *serveMix) launch(rs *runSpec, session string, opID int, check bool) (int, time.Time, int64, error) {
	var first time.Time
	spec := rs.spec
	spec.Session, spec.Stream = session, "ndjson"
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, first, 0, err
	}
	resp, err := w.client.Post(w.url("/v1/runs", nil, opID), "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, first, 0, err
	}
	defer resp.Body.Close()
	if err := w.status(resp, "launch "+rs.label); err != nil {
		return 0, first, 0, err
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	lines := sha256.New()
	var summary serve.RunSummary
	n, nbytes := 0, int64(0)
	for {
		line, err := br.ReadBytes('\n')
		nbytes += int64(len(line))
		if len(line) > 0 && first.IsZero() {
			first = time.Now()
		}
		if bytes.HasPrefix(line, []byte(`{"done":`)) {
			if err := json.Unmarshal(line, &summary); err != nil {
				return n, first, nbytes, fmt.Errorf("%s: bad summary line: %v", rs.label, err)
			}
			break
		}
		if err != nil {
			return n, first, nbytes, fmt.Errorf("%s: stream ended without a summary after %d events: %v", rs.label, n, err)
		}
		lines.Write(line)
		n++
	}
	// Release the stream's connection before asking for the report:
	// each client goroutine owns one connection, so holding it would
	// leave the report request waiting for a connection of its own.
	_, _ = io.Copy(io.Discard, br)
	resp.Body.Close()
	ref := rs.ref
	if w.corruptRef {
		ref.lines[0] ^= 0xff
	}
	var got [32]byte
	copy(got[:], lines.Sum(nil))
	switch {
	case summary.State != "done":
		return n, first, nbytes, fmt.Errorf("%s: run %s ended %s: %s", rs.label, summary.ID, summary.State, summary.Error)
	case !check:
	case n != ref.events || summary.Events != ref.events:
		return n, first, nbytes, fmt.Errorf("%s: %d event lines (summary %d), reference %d", rs.label, n, summary.Events, ref.events)
	case got != ref.lines:
		return n, first, nbytes, fmt.Errorf("%s: event lines differ from the offline run", rs.label)
	}
	rep, err := w.client.Get(w.url("/v1/runs/"+summary.ID+"/report", nil, opID))
	if err != nil {
		return n, first, nbytes, err
	}
	defer rep.Body.Close()
	if err := w.status(rep, "report "+rs.label); err != nil {
		return n, first, nbytes, err
	}
	h := sha256.New()
	if _, err := io.Copy(h, rep.Body); err != nil {
		return n, first, nbytes, err
	}
	copy(got[:], h.Sum(nil))
	if check && got != ref.report {
		return n, first, nbytes, fmt.Errorf("%s: /report differs from the offline report", rs.label)
	}
	return n, first, nbytes, nil
}

// readOp performs one browse, question fetch or figure view and checks
// it. A figure view fetches the question's image.png at 1x, 8x and 16x
// in turn on the client's connection, as a viewer zooming out would;
// its latency covers all three.
func (w *serveMix) readOp(o *op, due time.Time, ph *phase) error {
	q := w.bench.Questions[o.q]
	id := q.ID
	if w.badRead {
		id = "no-such-question"
	}
	var body []byte
	var err error
	switch o.kind {
	case opBrowse:
		query := url.Values{}
		query.Set("limit", strconv.Itoa(browsePage))
		query.Set("offset", strconv.Itoa(o.arg))
		if body, err = w.get("/v1/questions", query, o.id); err == nil {
			err = w.checkBrowse(body, o.arg)
		}
	case opQuestion:
		if body, err = w.get("/v1/questions/"+url.PathEscape(id), nil, o.id); err == nil {
			err = checkQuestion(body, q)
		}
	case opImage:
		for _, f := range figureFactors {
			query := url.Values{}
			query.Set("factor", strconv.Itoa(f))
			if body, err = w.get("/v1/questions/"+url.PathEscape(id)+"/image.png", query, o.id); err == nil {
				err = w.checkImage(body, q, f)
			}
			if err != nil {
				break
			}
		}
	}
	if err != nil {
		return err
	}
	done := time.Now()
	ph.sample(famRead, done.Sub(due))
	w.mu.Lock()
	w.reads = append(w.reads, readSample{o.id, ms(done.Sub(due))})
	w.mu.Unlock()
	return nil
}

// get fetches path and returns the body of a 2xx response.
func (w *serveMix) get(path string, query url.Values, opID int) ([]byte, error) {
	resp, err := w.client.Get(w.url(path, query, opID))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := w.status(resp, path); err != nil {
		return nil, err
	}
	return io.ReadAll(resp.Body)
}

func checkQuestion(body []byte, q *dataset.Question) error {
	var doc struct {
		ID     string `json:"id"`
		Prompt string `json:"prompt"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("question %s: %v", q.ID, err)
	}
	if doc.ID != q.ID || doc.Prompt != q.Prompt {
		return fmt.Errorf("question %s: served %q", q.ID, doc.ID)
	}
	return nil
}

func (w *serveMix) checkImage(body []byte, q *dataset.Question, factor int) error {
	want := w.pngRefs[pngKey{q.ID, factor}]
	cfg, err := png.DecodeConfig(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("image %s@%dx: %v", q.ID, factor, err)
	}
	if cfg.Width != want.w || cfg.Height != want.h || fnv64(body) != want.sum {
		return fmt.Errorf("image %s@%dx: %dx%d PNG differs from the reference %dx%d", q.ID, factor, cfg.Width, cfg.Height, want.w, want.h)
	}
	return nil
}

func (w *serveMix) checkBrowse(body []byte, offset int) error {
	var doc struct {
		Total     int `json:"total"`
		Questions []struct {
			ID string `json:"id"`
		} `json:"questions"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("browse: %v", err)
	}
	want := w.bench.Questions[offset:min(offset+browsePage, len(w.bench.Questions))]
	if doc.Total != len(w.bench.Questions) || len(doc.Questions) != len(want) {
		return fmt.Errorf("browse offset %d: total %d count %d, want %d and %d", offset, doc.Total, len(doc.Questions), len(w.bench.Questions), len(want))
	}
	for i, q := range want {
		if doc.Questions[i].ID != q.ID {
			return fmt.Errorf("browse offset %d: item %d is %s, want %s", offset, i, doc.Questions[i].ID, q.ID)
		}
	}
	return nil
}

// url builds a request URL; bq tags the request so the access log
// record can be joined with the client's timing.
func (w *serveMix) url(path string, q url.Values, opID int) string {
	if q == nil {
		q = url.Values{}
	}
	q.Set("bq", strconv.Itoa(opID))
	return w.base + path + "?" + q.Encode()
}

// status turns a non-2xx response into an error, counting refusals.
func (w *serveMix) status(resp *http.Response, what string) error {
	if resp.StatusCode/100 == 2 {
		return nil
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		w.mu.Lock()
		w.refused++
		w.mu.Unlock()
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Errorf("%s: HTTP %d: %s", what, resp.StatusCode, strings.TrimSpace(string(msg)))
}

func (w *serveMix) e2e(ph *phase, out map[string]float64) {
	out["events_per_s"] = float64(ph.events) / ph.wall.Seconds()
	out["live_heap_mib"] = w.heapMiB
}

func (w *serveMix) layers(tr *tracer, ph *phase, out map[string]float64) {
	out["vlm.answer_ns"] = tr.meanNS("vlm.answer")
	tr.replayLayers(out)
	cats := w.alog.durations()
	out["serve.launch_p90_ms"] = quantile(cats["launch"], 0.9)
	out["serve.report_p90_ms"] = quantile(cats["report"], 0.9)
	out["serve.image_p90_ms"] = quantile(cats["image"], 0.9)
	out["serve.browse_p90_ms"] = quantile(cats["browse"], 0.9)
	// client gap: read latency from due time minus the server's own
	// handler time for the same request.
	var gaps []float64
	for _, r := range w.reads {
		if d, ok := w.alog.byOp(r.op); ok {
			gaps = append(gaps, r.ms-d)
		}
	}
	out["serve.client_gap_ms"] = quantile(gaps, 0.9)
	out["serve.queued_max"] = float64(w.health.queuedMax)
	out["serve.pool_free_min"] = float64(w.health.freeMin)
	out["serve.runs_retained"] = float64(w.health.runs)
	out["serve.refused"] = float64(w.refused)
	if ph.events > 0 {
		out["serve.bytes_per_event"] = float64(w.streamBytes) / float64(ph.events)
	}
	if w.runs > 0 {
		out["serve.heap_kib_per_run"] = (float64(liveHeap()) - float64(w.heapBefore)) / 1024 / float64(w.runs)
	}
	cacheLayers(w.cacheBefore, w.cache.Stats(), out)

	// The open-loop segment: its latencies count from each operation's
	// due time, and a generator running late marks the segment invalid.
	open := newPhase()
	late := w.openLoop(time.Duration(w.cfg.seconds/2*float64(time.Second)), open)
	ph.attempted += open.attempted
	ph.failed += open.failed
	ph.failures = append(ph.failures, open.failures...)
	out["loadgen.rate_per_s"] = serveRate
	out["loadgen.late_p90_ms"] = quantile(late, 0.9)
	out["loadgen.valid"] = 1
	if out["loadgen.late_p90_ms"] > ms(maxLateP90) {
		out["loadgen.valid"] = 0
	}
	out["loadgen.run_p90_ms"] = quantile(open.samples[famRun], 0.9)
	out["loadgen.read_p90_ms"] = quantile(open.samples[famRead], 0.9)
}

func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// healthStats is what polling GET /healthz saw during a phase.
type healthStats struct {
	queuedMax, freeMin, runs int
}

// pollHealth polls /healthz on its own connection until the returned
// stop function is called; stop waits for the poller to exit.
func (w *serveMix) pollHealth() func() healthStats {
	stop := make(chan struct{})
	done := make(chan healthStats)
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	go func() {
		st := healthStats{freeMin: w.cfg.procs}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				client.CloseIdleConnections()
				done <- st
				return
			case <-tick.C:
			}
			resp, err := client.Get(w.base + "/healthz")
			if err != nil {
				continue
			}
			var h struct {
				Runs     int `json:"runs"`
				PoolFree int `json:"pool_free"`
				Queued   int `json:"queued"`
			}
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err != nil {
				continue
			}
			st.queuedMax = max(st.queuedMax, h.Queued)
			st.freeMin = min(st.freeMin, h.PoolFree)
			st.runs = h.Runs
		}
	}()
	return func() healthStats {
		close(stop)
		return <-done
	}
}

// accessLog is the server's Config.AccessLog: while started it parses
// each record's dur_ms by endpoint and by the bq tag the client set.
type accessLog struct {
	mu  sync.Mutex
	on  bool
	ops map[int]float64
	cat map[string][]float64
}

func (a *accessLog) start() {
	a.mu.Lock()
	a.on, a.ops, a.cat = true, make(map[int]float64), make(map[string][]float64)
	a.mu.Unlock()
}

func (a *accessLog) stop() {
	a.mu.Lock()
	a.on = false
	a.mu.Unlock()
}

func (a *accessLog) Write(p []byte) (int, error) {
	a.mu.Lock()
	on := a.on
	a.mu.Unlock()
	if !on {
		return len(p), nil
	}
	var rec struct {
		Method string  `json:"method"`
		Path   string  `json:"path"`
		Query  string  `json:"query"`
		DurMS  float64 `json:"dur_ms"`
	}
	if err := json.Unmarshal(p, &rec); err != nil {
		return 0, err
	}
	var cat string
	switch {
	case rec.Method == http.MethodPost && rec.Path == "/v1/runs":
		cat = "launch"
	case strings.HasSuffix(rec.Path, "/report"):
		cat = "report"
	case strings.HasSuffix(rec.Path, "/image.png"):
		cat = "image"
	case strings.HasPrefix(rec.Path, "/v1/questions"):
		cat = "browse"
	}
	q, _ := url.ParseQuery(rec.Query)
	op, opErr := strconv.Atoi(q.Get("bq"))
	a.mu.Lock()
	if a.on {
		if cat != "" {
			a.cat[cat] = append(a.cat[cat], rec.DurMS)
		}
		if opErr == nil && cat != "launch" && cat != "report" {
			a.ops[op] += rec.DurMS // a figure view makes three requests
		}
	}
	a.mu.Unlock()
	return len(p), nil
}

func (a *accessLog) durations() map[string][]float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cat
}

func (a *accessLog) byOp(op int) (float64, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	d, ok := a.ops[op]
	return d, ok
}
