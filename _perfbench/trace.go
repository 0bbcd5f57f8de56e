package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/eval"
)

// The tracer records spans around calls into the program's layers,
// entirely from the harness side: a forwarding eval.Model around
// Answer, an eval.Observer for delivery, and timers around the
// codec/generator/shard calls. Spans stay in memory (up to maxSpans;
// the rest only feed the per-layer sums) and are written out once the
// run ends.

const maxSpans = 200_000

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Event  int64  `json:"event"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type layerSum struct {
	n  int64
	ns int64
}

type pendingKey struct{ model, question string }

type pendingAnswer struct {
	end, event int64
}

// call is one captured Answer call, replayed serially to count
// allocations without the pipeline around it.
type call struct {
	m    eval.Model
	q    *dataset.Question
	opts eval.InferenceOptions
}

// judged is one captured (question, response) pair for the judge replay.
type judged struct {
	q    *dataset.Question
	resp string
}

const maxCaptured = 50_000

type tracer struct {
	t0 time.Time

	ids    atomic.Int64
	events atomic.Int64
	// parent is the span id of the closed-loop operation in progress.
	parent atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int64
	sums    map[string]*layerSum
	calls   []call
	pairs   []judged

	// trackDeliver enables the Answer-return → Observer join. It stays
	// off where the harness does not own the observer (serve-mix).
	trackDeliver bool
	pmu          sync.Mutex
	pending      map[pendingKey]pendingAnswer
	deliverN     int64
	deliverNS    int64
}

func newTracer(trackDeliver bool) *tracer {
	t := &tracer{
		t0:           time.Now(),
		sums:         make(map[string]*layerSum),
		trackDeliver: trackDeliver,
		pending:      make(map[pendingKey]pendingAnswer),
	}
	t.parent.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// span records one span and returns its id.
func (t *tracer) span(layer string, start, end, parent, event int64) int64 {
	id := t.ids.Add(1)
	t.record(span{ID: id, Parent: parent, Event: event, Layer: layer, Start: start, End: end})
	return id
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.addLocked(s)
	t.mu.Unlock()
}

func (t *tracer) addLocked(s span) {
	sum := t.sums[s.Layer]
	if sum == nil {
		sum = &layerSum{}
		t.sums[s.Layer] = sum
	}
	sum.n++
	sum.ns += s.End - s.Start
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
}

// sum returns the count and total nanoseconds recorded for a layer.
func (t *tracer) sum(layer string) (int64, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.sums[layer]; s != nil {
		return s.n, s.ns
	}
	return 0, 0
}

// meanNS is a layer's mean span duration, 0 when it never ran.
func (t *tracer) meanNS(layer string) float64 {
	n, ns := t.sum(layer)
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n)
}

// begin opens a closed-loop operation span; Answer and deliver spans
// recorded until the matching end are its children.
func (t *tracer) begin() (id, start int64) {
	id = t.ids.Add(1)
	t.parent.Store(id)
	return id, t.now()
}

func (t *tracer) end(layer string, id, start int64) {
	t.parent.Store(-1)
	t.record(span{ID: id, Parent: -1, Event: -1, Layer: layer, Start: start, End: t.now()})
}

// tracedModel forwards eval.Model and records an Answer span. The
// tracer is swappable so one model list serves traced and untraced
// phases (serve-mix hands the list to the server once); nil forwards
// without recording.
type tracedModel struct {
	inner eval.Model
	layer string
	tr    atomic.Pointer[tracer]
}

func wrapModels(ms []eval.Model, layer string) []*tracedModel {
	out := make([]*tracedModel, len(ms))
	for i, m := range ms {
		out[i] = &tracedModel{inner: m, layer: layer}
	}
	return out
}

func asModels(ws []*tracedModel) []eval.Model {
	out := make([]eval.Model, len(ws))
	for i, w := range ws {
		out[i] = w
	}
	return out
}

func setTracer(ws []*tracedModel, tr *tracer) {
	for _, w := range ws {
		w.tr.Store(tr)
	}
}

func (m *tracedModel) Name() string { return m.inner.Name() }

func (m *tracedModel) Answer(q *dataset.Question, opts eval.InferenceOptions) string {
	tr := m.tr.Load()
	if tr == nil {
		return m.inner.Answer(q, opts)
	}
	start := tr.now()
	resp := m.inner.Answer(q, opts)
	end := tr.now()
	ev := tr.events.Add(1)
	s := span{ID: tr.ids.Add(1), Parent: tr.parent.Load(), Event: ev, Layer: m.layer, Start: start, End: end}
	tr.mu.Lock()
	tr.addLocked(s)
	if m.layer == "vlm.answer" && len(tr.calls) < maxCaptured {
		tr.calls = append(tr.calls, call{m: m.inner, q: q, opts: opts})
	}
	tr.mu.Unlock()
	if tr.trackDeliver {
		tr.pmu.Lock()
		tr.pending[pendingKey{m.inner.Name(), q.ID}] = pendingAnswer{end: end, event: ev}
		tr.pmu.Unlock()
	}
	return resp
}

// observe is the traced runs' eval.Observer: it closes the deliver span
// opened when the event's Answer returned and captures the judged pair.
func (t *tracer) observe(ev eval.Event) {
	at := t.now()
	key := pendingKey{ev.Model.Name(), ev.Question.ID}
	t.pmu.Lock()
	p, ok := t.pending[key]
	if ok {
		delete(t.pending, key)
		t.deliverN++
		t.deliverNS += at - p.end
	}
	t.pmu.Unlock()
	if ok {
		t.span("eval.deliver", p.end, at, t.parent.Load(), p.event)
	}
	t.mu.Lock()
	if len(t.pairs) < maxCaptured {
		t.pairs = append(t.pairs, judged{q: ev.Question, resp: ev.Response})
	}
	t.mu.Unlock()
}

// deliverMeanNS is the mean Answer-return → Observer gap.
func (t *tracer) deliverMeanNS() float64 {
	t.pmu.Lock()
	defer t.pmu.Unlock()
	if t.deliverN == 0 {
		return 0
	}
	return float64(t.deliverNS) / float64(t.deliverN)
}

// replay runs fn over n items serially until at least 50ms have
// passed and returns nanoseconds and heap allocations per item.
func replay(n int, fn func(i int)) (nsPer, allocsPer float64) {
	if n == 0 {
		return 0, 0
	}
	for i := 0; i < n; i++ { // warm: memo tables, pools
		fn(i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	items := 0
	for time.Since(start) < 50*time.Millisecond {
		for i := 0; i < n; i++ {
			fn(i)
		}
		items += n
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed) / float64(items), float64(after.Mallocs-before.Mallocs) / float64(items)
}

// replayLayers fills the serial-replay metrics: Answer allocations and
// Judge.Correct time and allocations over the captured calls.
func (t *tracer) replayLayers(out map[string]float64) {
	t.mu.Lock()
	calls, pairs := t.calls, t.pairs
	t.mu.Unlock()
	_, out["vlm.answer_allocs"] = replay(len(calls), func(i int) {
		c := calls[i]
		c.m.Answer(c.q, c.opts)
	})
	var j eval.Judge
	out["eval.judge_ns"], out["eval.judge_allocs"] = replay(len(pairs), func(i int) {
		j.Correct(pairs[i].q, pairs[i].resp)
	})
}

// write dumps the spans as JSON lines to dir/name and returns the path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	spans := t.spans
	dropped := t.dropped
	t.mu.Unlock()
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if dropped > 0 {
		fmt.Fprintf(w, "{\"dropped\":%d}\n", dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// spanCount is every span recorded, kept or dropped.
func (t *tracer) spanCount() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int64(len(t.spans)) + t.dropped
}
