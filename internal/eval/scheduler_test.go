package eval

import (
	"context"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// TestSourceSchedulerCoversSourceOnce: the static grid scheduler hands
// out each (model, question) task exactly once, in model-major Seq
// order, then reports done forever — for a one-model grid and a
// three-model one.
func TestSourceSchedulerCoversSourceOnce(t *testing.T) {
	b := testBenchmark(9)
	model := func(name string) Model {
		return fixedModel{name, func(*dataset.Question) string { return "c" }}
	}
	for _, models := range [][]Model{{model("m")}, {model("m1"), model("m2"), model("m3")}} {
		s := newGridScheduler(models, b.Questions)
		n := len(models) * b.Len()
		seen := make(map[int]bool)
		for {
			ev, st := s.Next()
			if st == ScheduleDone {
				break
			}
			if st != ScheduleReady {
				t.Fatalf("static scheduler returned state %v", st)
			}
			if seen[ev.Seq] {
				t.Fatalf("seq %d handed out twice", ev.Seq)
			}
			seen[ev.Seq] = true
			wantQ, wantM := b.Questions[ev.Seq%b.Len()], models[ev.Seq/b.Len()].Name()
			if ev.Question != wantQ || ev.Model.Name() != wantM {
				t.Fatalf("seq %d: (%s, %s), want (%s, %s)", ev.Seq, ev.Model.Name(), ev.Question.ID, wantM, wantQ.ID)
			}
		}
		if len(seen) != n {
			t.Fatalf("%d models: claimed %d events, want %d", len(models), len(seen), n)
		}
		if _, st := s.Next(); st != ScheduleDone {
			t.Fatal("drained scheduler not done")
		}
		if s.SizeHint() != n {
			t.Fatalf("SizeHint %d, want %d", s.SizeHint(), n)
		}
	}
}

// chainScheduler issues questions strictly one at a time: the next item
// is only released inside Record. With more workers than ready items
// this forces the ScheduleWait/park/wake path that static sources never
// exercise.
type chainScheduler struct {
	mu          sync.Mutex
	model       Model
	questions   []*dataset.Question
	issued      int
	outstanding bool
	recorded    []int // Seq values in Record order
}

func (c *chainScheduler) Next() (Event, ScheduleState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.issued >= len(c.questions) && !c.outstanding {
		return Event{}, ScheduleDone
	}
	if c.outstanding || c.issued >= len(c.questions) {
		return Event{}, ScheduleWait
	}
	ev := Event{Seq: c.issued, Model: c.model, Question: c.questions[c.issued]}
	c.issued++
	c.outstanding = true
	return ev, ScheduleReady
}

func (c *chainScheduler) Record(ev *Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.outstanding = false
	c.recorded = append(c.recorded, ev.Seq)
}

// TestDynamicSchedulerSequentialChain drives the dynamic seam with a
// one-at-a-time chain under a large worker pool: every question must be
// delivered, Record must run strictly in Seq order, and idle workers
// must park on the gate and wake instead of spinning or deadlocking.
func TestDynamicSchedulerSequentialChain(t *testing.T) {
	b := testBenchmark(25)
	m := fixedModel{"m", func(q *dataset.Question) string {
		if q.ID[len(q.ID)-1]%2 == 0 {
			return "c"
		}
		return "a"
	}}
	for _, workers := range []int{1, 8} {
		sched := &chainScheduler{model: m, questions: b.Questions}
		rep := &Report{ModelName: m.Name()}
		sink := &reportSink{nq: b.Len(), reports: []*Report{rep}}
		if err := (Runner{Workers: workers}).run(context.Background(), sched, sink); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(rep.Results) != b.Len() {
			t.Fatalf("workers=%d: delivered %d results, want %d", workers, len(rep.Results), b.Len())
		}
		if len(sched.recorded) != b.Len() {
			t.Fatalf("workers=%d: recorded %d outcomes, want %d", workers, len(sched.recorded), b.Len())
		}
		for i, seq := range sched.recorded {
			if seq != i {
				t.Fatalf("workers=%d: Record order %v not strictly Seq order", workers, sched.recorded)
			}
		}
		for i, res := range rep.Results {
			if res.QuestionID != b.Questions[i].ID {
				t.Fatalf("workers=%d: result %d is %s, want %s", workers, i, res.QuestionID, b.Questions[i].ID)
			}
		}
	}
}

// TestSchedGate: a pulse with no one armed is a no-op; an armed waiter
// is released by the next pulse; arming twice reuses the same channel
// until a pulse consumes it.
func TestSchedGate(t *testing.T) {
	g := newSchedGate()
	g.pulse() // nothing armed: must not panic or leak
	ch1 := g.arm()
	ch2 := g.arm()
	if ch1 != ch2 {
		t.Fatal("two arms before a pulse returned different channels")
	}
	select {
	case <-ch1:
		t.Fatal("gate released before pulse")
	default:
	}
	g.pulse()
	select {
	case <-ch1:
	default:
		t.Fatal("pulse did not release the armed channel")
	}
	// A fresh arm after the pulse gets a new, unreleased channel.
	ch3 := g.arm()
	select {
	case <-ch3:
		t.Fatal("stale release leaked into the new arm cycle")
	default:
	}
	g.pulse()
	<-ch3
}

// TestEvaluateAdaptiveValidation covers the entry-point error paths.
func TestEvaluateAdaptiveValidation(t *testing.T) {
	m := fixedModel{"m", func(*dataset.Question) string { return "c" }}
	if _, err := (Runner{}).EvaluateAdaptiveContext(context.Background(), []Model{m}, nil); err == nil {
		t.Error("nil scheduler accepted")
	}
	if _, err := (Runner{}).EvaluateAdaptiveContext(context.Background(), []Model{m, m}, &chainScheduler{}); err == nil {
		t.Error("duplicate model accepted")
	}
	reports, err := (Runner{}).EvaluateAdaptiveContext(context.Background(), nil, &chainScheduler{})
	if err != nil || len(reports) != 0 {
		t.Errorf("empty model list: reports %v err %v", reports, err)
	}
}
