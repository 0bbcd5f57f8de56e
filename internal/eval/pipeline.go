package eval

import (
	"context"
	"sync"

	"repro/internal/dataset"
)

// This file is the evaluation path every Runner entry point shares: an
// ItemScheduler (scheduler.go) hands out per-question Events, a worker
// pool asks each event's model for a response and judges it, and a
// reorder buffer delivers completed events to a sink strictly in Seq
// order. An optional Observer sees every event right after the sink —
// in the same deterministic order — which is the hook point for
// metrics, tracing and progress reporting.

// Event is the per-question unit of work flowing through the pipeline.
// The scheduler seeds Seq, Model and Question; the worker fills
// Response and Correct; the scheduler may annotate the adaptive fields
// when it records the outcome.
type Event struct {
	// Seq is the event's position in the run's canonical order: the
	// flattened model-major (model, question) task index for static
	// runs (the question index when there is one model), the issue
	// order for adaptive runs.
	Seq      int
	Model    Model
	Question *dataset.Question
	Response string
	Correct  bool
	// Adaptive marks events annotated by an adaptive ItemScheduler:
	// Ability/AbilitySE carry the model's posterior ability estimate
	// after this outcome, and StopReason is non-empty on the model's
	// final event ("separated", "precise", "budget", "exhausted").
	// Static runs leave all four zero; reports never contain them, so
	// the byte-identity guarantees are untouched.
	Adaptive   bool
	Ability    float64
	AbilitySE  float64
	StopReason string
}

// sink consumes completed events. The pipeline calls Consume strictly
// in Seq order from one goroutine at a time, so sinks need no locking
// of their own.
type sink interface {
	Consume(ev Event)
}

// Observer receives every event immediately after the sink, under the
// same in-order single-goroutine guarantee. Cancelling the run's
// context from inside Observe stops delivery after the current event,
// which makes observer-triggered cancellation deterministic: the
// partial report is exactly the events observed so far.
type Observer interface {
	Observe(ev Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(ev Event)

// Observe calls f.
func (f ObserverFunc) Observe(ev Event) { f(ev) }

// run executes one evaluation until sched drains or ctx is cancelled,
// returning ctx.Err(). Workers pull tasks cooperatively: cancellation
// is checked between questions (a question in flight finishes), and
// the in-order delivery gate re-checks the context before every emit,
// so after cancel snk holds a consistent prefix of the canonical order
// — a graceful partial report — and every delivered result is
// byte-identical to the full run's.
//
// Judged outcomes feed back into the scheduler from inside the reorder
// buffer, strictly in Seq order, before the sink sees them — the
// Judge→Scheduler back-edge that makes adaptive runs deterministic: the
// scheduler's state evolves along the canonical event order no matter
// how many workers race ahead of it.
func (r Runner) run(ctx context.Context, sched ItemScheduler, snk sink) error {
	if ctx == nil {
		ctx = context.Background()
	}
	gate := newSchedGate()
	d := &delivery{
		ring:  make([]slot, initialRing),
		sink:  snk,
		obs:   r.Observer,
		sched: sched,
		gate:  gate,
	}
	nw := r.EffectiveWorkers()
	if s, ok := sched.(schedulerSize); ok && nw > s.SizeHint() {
		nw = s.SizeHint()
	}
	work := func() {
		// The worker's judge Scratch, checked out for the whole run and
		// owned by this goroutine alone, so the buffers are reused
		// across every event it judges without locking or per-event
		// pool traffic.
		sc := getScratch()
		defer putScratch(sc)
		for ctx.Err() == nil {
			ev, st := sched.Next()
			if st == ScheduleWait {
				// Arm the gate, then re-check: a Record between the
				// first Next and arm would otherwise be a missed
				// wake-up. The static path never reaches here.
				wake := gate.arm()
				ev, st = sched.Next()
				if st == ScheduleWait {
					select {
					case <-wake:
					case <-ctx.Done():
					}
					continue
				}
			}
			if st == ScheduleDone {
				return
			}
			ev.Response = ev.Model.Answer(ev.Question, r.Opts)
			ev.Correct = r.Judge.CorrectWith(ev.Question, ev.Response, sc)
			d.deliver(ctx, ev)
		}
	}
	if nw <= 1 {
		work()
		return ctx.Err()
	}
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// delivery is the reorder buffer between the parallel stages and the
// ordered sink: workers complete events in scheduling order, deliver
// parks them until their Seq is next, and the contiguous prefix drains
// under one mutex — which is what serialises Sink/Observer calls and
// keeps them in canonical order for any worker count.
//
// Parked events live in a ring indexed by Seq: event s sits in slot
// s & (len(ring)-1). Every parked Seq lies in the window
// [next, next+len(ring)), so two parked events never share a slot; an
// event landing beyond the window doubles the ring first. The ring is
// allocated once per run and only grows, so steady-state delivery
// allocates nothing.
type delivery struct {
	mu      sync.Mutex
	next    int    // lowest Seq not yet emitted
	ring    []slot // completed events waiting for their turn; len is a power of two
	stopped bool   // context cancelled; drop instead of emit
	sink    sink
	obs     Observer
	sched   ItemScheduler
	gate    *schedGate
}

// slot is one ring entry; full marks it occupied.
type slot struct {
	ev   Event
	full bool
}

// initialRing is the ring's starting length, a power of two. One event
// is parked at a time on a serial run; a parallel one parks about one
// per worker and grows the ring past this only when a slow event holds
// back many fast ones.
const initialRing = 16

// deliver parks ev and drains the contiguous prefix.
//
//hot:deliver runs once per event under the delivery lock
func (d *delivery) deliver(ctx context.Context, ev Event) {
	d.mu.Lock()
	defer d.mu.Unlock()
	// Workers parked on ScheduleWait re-poll after every delivery
	// attempt: Record below may have issued new work, and on
	// cancellation the pulse is harmless (waiters also watch ctx).
	defer d.gate.pulse()
	if d.stopped {
		return
	}
	if ev.Seq-d.next >= len(d.ring) {
		d.grow(ev.Seq)
	}
	mask := len(d.ring) - 1
	d.ring[ev.Seq&mask] = slot{ev: ev, full: true}
	for {
		if ctx.Err() != nil {
			// Stop emitting the moment cancellation is visible — even
			// for events already buffered — so an observer that cancels
			// during Observe cuts the report off deterministically
			// right after its event.
			d.stopped = true
			return
		}
		sl := &d.ring[d.next&mask]
		if !sl.full {
			return
		}
		d.next++
		// The scheduler hears the judged outcome first — in canonical
		// Seq order — and may annotate the event (ability, stop reason)
		// before the sink and observer see it. It annotates the parked
		// copy, which already lives on the heap, so no per-event copy
		// escapes.
		d.sched.Record(&sl.ev)
		nxt := sl.ev
		*sl = slot{}
		d.sink.Consume(nxt)
		if d.obs != nil {
			d.obs.Observe(nxt)
		}
	}
}

// grow doubles the ring until seq falls inside the window starting at
// next, moving every parked event to its slot under the new length.
func (d *delivery) grow(seq int) {
	n := len(d.ring)
	for seq-d.next >= n {
		n *= 2
	}
	ring := make([]slot, n)
	for _, sl := range d.ring {
		if sl.full {
			ring[sl.ev.Seq&(n-1)] = sl
		}
	}
	d.ring = ring
}

// reportSink appends each event to its model's report. Events arrive
// in Seq order and the grid is model-major, so every report's Results
// fill in question order, and a cancelled run leaves each report with
// a clean prefix (earlier models complete, later models empty).
type reportSink struct {
	nq      int // questions per model; divides Seq into (model, question)
	reports []*Report
}

func (s *reportSink) Consume(ev Event) {
	mi := 0
	if s.nq > 0 {
		mi = ev.Seq / s.nq
	}
	s.reports[mi].Results = append(s.reports[mi].Results, QuestionResult{
		QuestionID: ev.Question.ID,
		Category:   ev.Question.Category,
		Response:   ev.Response,
		Correct:    ev.Correct,
	})
}
