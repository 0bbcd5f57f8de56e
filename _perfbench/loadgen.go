package main

import (
	"math/rand/v2"
	"time"
)

// The serve-mix load generator: a seeded open-loop arrival schedule,
// sent from one goroutine to a fixed set of client goroutines, one per
// keep-alive connection. Latencies are timed from each operation's due
// time, so a stall also charges the operations queued behind it.

// opKind is one kind of serve-mix operation.
type opKind int

const (
	opBrowse opKind = iota
	opQuestion
	opImage
	opRun
)

// mixEntry is one line of the traffic mix: an operation kind and its
// share of arrivals. Run entries name a spec index.
type mixEntry struct {
	kind   opKind
	spec   int
	weight float64
}

// op is one scheduled operation.
type op struct {
	id   int
	kind opKind
	spec int           // run spec index (opRun)
	q    int           // question index (question and image reads)
	arg  int           // browse offset
	due  time.Duration // offset from the schedule start
}

// shuffleWindow bounds how far the seeded shuffle moves an operation
// from its interleaved slot, so every stretch of the sequence carries
// the mix's proportions (a short run still launches runs).
const shuffleWindow = 20

// schedule draws n arrivals over span: exponential gaps (a Poisson
// process) rescaled so exactly n arrivals fit the span, with the mix's
// kinds in fixed proportions, evenly interleaved and shuffled by the
// seed within windows. Fixing the count keeps the offered load
// identical across seeds while the timing and order vary with the
// seed.
func schedule(seed int64, n int, span time.Duration, mix []mixEntry, questions int) []op {
	r := rand.New(rand.NewPCG(uint64(seed), 0x5e12e))
	gaps := make([]float64, n+1)
	total := 0.0
	for i := range gaps {
		gaps[i] = r.ExpFloat64()
		total += gaps[i]
	}
	kinds := interleave(mix, n)
	for lo := 0; lo < n; lo += shuffleWindow {
		w := kinds[lo:min(lo+shuffleWindow, n)]
		r.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
	}
	// Reads walk seeded permutations of their targets, so every seed
	// reads the same questions equally often.
	imageQ, fetchQ, pages := cycle(r, questions), cycle(r, questions), cycle(r, questions)
	ops := make([]op, n)
	at := 0.0
	for i := range ops {
		at += gaps[i]
		o := op{id: i, kind: kinds[i].kind, spec: kinds[i].spec, due: time.Duration(at / total * float64(span))}
		switch o.kind {
		case opImage:
			o.q = imageQ()
		case opQuestion:
			o.q = fetchQ()
		case opBrowse:
			o.arg = pages()
		}
		ops[i] = o
	}
	return ops
}

// cycle returns a function that yields 0..n-1 in seeded random orders,
// one whole permutation after another.
func cycle(r *rand.Rand, n int) func() int {
	var perm []int
	return func() int {
		if len(perm) == 0 {
			perm = r.Perm(n)
		}
		v := perm[0]
		perm = perm[1:]
		return v
	}
}

// generate sends ops to queue at their due times relative to start,
// from the calling goroutine, and returns how late each send was. It
// closes queue when done.
func generate(start time.Time, ops []op, queue chan<- *op) []float64 {
	late := make([]float64, len(ops))
	for i := range ops {
		due := start.Add(ops[i].due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = ms(time.Since(due))
		queue <- &ops[i]
	}
	close(queue)
	return late
}

// interleave spreads the mix over n slots in proportion to the weights,
// each entry as evenly as possible (smooth weighted round robin).
func interleave(mix []mixEntry, n int) []mixEntry {
	total := 0.0
	for _, m := range mix {
		total += m.weight
	}
	credit := make([]float64, len(mix))
	out := make([]mixEntry, n)
	for k := range out {
		best := 0
		for i, m := range mix {
			credit[i] += m.weight
			if credit[i] > credit[best] {
				best = i
			}
		}
		credit[best] -= total
		out[k] = mix[best]
	}
	return out
}
