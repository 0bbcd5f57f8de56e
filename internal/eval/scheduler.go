package eval

import (
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
)

// This file is the pipeline's one task seam: an ItemScheduler hands the
// worker pool its next task on demand and hears every judged outcome
// back, which is what lets a scheduler *react* — an adaptive run picks
// its next question from the verdicts so far. Static runs are the
// feedback-free case: gridScheduler hands out a fixed (model, question)
// grid and ignores the outcomes.

// ScheduleState is an ItemScheduler's answer to Next.
type ScheduleState int

const (
	// ScheduleReady: the returned event is valid and must be evaluated.
	ScheduleReady ScheduleState = iota
	// ScheduleWait: no event is available right now, but outcomes are
	// still outstanding and recording them may unblock more work. Only
	// legal while at least one issued event has not been recorded —
	// otherwise nothing can ever wake the pipeline again.
	ScheduleWait
	// ScheduleDone: the run is complete; no further events will be
	// issued. Must be sticky: once returned, every later Next must
	// return it too.
	ScheduleDone
)

// ItemScheduler is the pipeline's task seam.
//
// Next may be called concurrently from every worker; implementations
// guard their own state. Events must be issued with consecutive Seq
// values starting at 0, in the order Next hands them out — the reorder
// buffer delivers strictly in Seq order, so a gap would wedge the run.
//
// Record receives each judged event exactly once, strictly in Seq
// order, from one goroutine at a time, *before* the sink and observer
// see it; a scheduler may annotate the event in place (ability
// estimates, stop reasons) and the annotations travel to the sink,
// observer, and any serving layer on top. Because Record order is the
// canonical delivery order, a scheduler whose decisions are pure
// functions of the outcomes it has recorded is deterministic for any
// worker count — the §6/§7 invariant extended to dynamic schedulers.
type ItemScheduler interface {
	Next() (Event, ScheduleState)
	Record(ev *Event)
}

// schedulerSize is an optional ItemScheduler extension bounding useful
// parallelism (a static grid's size, an adaptive tournament's
// model count); the pipeline clamps its worker pool to it.
type schedulerSize interface {
	SizeHint() int
}

// gridScheduler is the static scheduler: it hands out the flattened
// model-major (model, question) grid — so the worker pool stays busy
// across model boundaries — through an atomic claim counter. The event
// for claim t is a pure function of t, Record is a no-op, and Wait
// never occurs.
// With one model the Seq order is the question order.
type gridScheduler struct {
	models    []Model
	questions []*dataset.Question
	next      atomic.Int64
}

func newGridScheduler(models []Model, questions []*dataset.Question) *gridScheduler {
	return &gridScheduler{models: models, questions: questions}
}

func (s *gridScheduler) Next() (Event, ScheduleState) {
	t := int(s.next.Add(1)) - 1
	if t >= s.SizeHint() {
		return Event{}, ScheduleDone
	}
	nq := len(s.questions)
	return Event{Seq: t, Model: s.models[t/nq], Question: s.questions[t%nq]}, ScheduleReady
}

func (s *gridScheduler) Record(*Event) {}

func (s *gridScheduler) SizeHint() int { return len(s.models) * len(s.questions) }

// schedGate wakes workers parked on ScheduleWait. A worker arms the
// gate only after a first Next returned Wait (so the static path never
// touches it), re-checks the scheduler, and then blocks on the armed
// channel; the delivery path pulses the gate after recording outcomes,
// which closes the channel only when someone is (or may be) waiting —
// the channel is replaced lazily, so a run that never waits never
// allocates here.
type schedGate struct {
	mu    sync.Mutex
	ch    chan struct{}
	armed bool
}

func newSchedGate() *schedGate {
	return &schedGate{ch: make(chan struct{})}
}

// arm returns the channel the next pulse will close.
func (g *schedGate) arm() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.armed = true
	return g.ch
}

// pulse wakes every armed waiter; a no-op when nobody armed since the
// last pulse.
func (g *schedGate) pulse() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.armed {
		return
	}
	close(g.ch)
	g.ch = make(chan struct{})
	g.armed = false
}
