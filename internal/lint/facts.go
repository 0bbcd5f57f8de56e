package lint

import (
	"go/types"
)

// FuncFacts are the bottom-up facts the framework computes for every
// declared function in the module before analyzers run. Analyzers read
// them through Pass.Facts to reason across function boundaries without
// re-walking callee bodies.
type FuncFacts struct {
	// TakesCtx reports whether the signature has a context.Context
	// parameter.
	TakesCtx bool

	// Spawns reports whether the body contains a go statement,
	// directly or inside a nested function literal.
	Spawns bool

	// MayBlock reports whether the function can block the calling
	// goroutine: it performs a channel operation, calls a blocking
	// stdlib root (Wait, Lock, I/O, Sleep), or synchronously calls a
	// function that may block. BlockReason holds the first reason in
	// source order ("sends on a channel", "calls os.ReadFile", ...).
	MayBlock    bool
	BlockReason string
}

// Facts exposes the computed per-function facts plus the blocking-root
// table for functions declared outside the module (stdlib).
type Facts struct {
	funcs map[*types.Func]FuncFacts
}

// Of returns the facts for a module-declared function. The zero value
// is returned for functions with no body in the module (stdlib,
// interface methods, func values).
func (f *Facts) Of(fn *types.Func) FuncFacts {
	if f == nil || fn == nil {
		return FuncFacts{}
	}
	return f.funcs[fn]
}

// MayBlock reports whether calling fn can block the caller's
// goroutine, with a human-readable reason. It covers both
// module-declared functions (via propagated facts) and the stdlib
// blocking roots.
func (f *Facts) MayBlock(fn *types.Func) (string, bool) {
	if fn == nil {
		return "", false
	}
	if f != nil {
		if facts, ok := f.funcs[fn]; ok {
			if facts.MayBlock {
				return facts.BlockReason, true
			}
			return "", false
		}
	}
	return blockingRoot(fn)
}

// ComputeFacts builds the module call graph and propagates may-block
// facts bottom-up to a fixed point. Deterministic: nodes are visited
// in (package, file, declaration) order and the worklist is FIFO.
func ComputeFacts(pkgs []*Package) *Facts {
	g := buildCallGraph(pkgs)
	facts := &Facts{funcs: make(map[*types.Func]FuncFacts, len(g.order))}

	// callers[f] lists the nodes that synchronously call f, in
	// deterministic discovery order.
	callers := make(map[*types.Func][]*cgNode)
	for _, n := range g.order {
		seen := make(map[*types.Func]bool)
		for _, callee := range n.syncCallees {
			if seen[callee] {
				continue
			}
			seen[callee] = true
			callers[callee] = append(callers[callee], n)
		}
	}

	// Seed: direct blocking operations and calls to stdlib blocking
	// roots (already folded into seedBlock by collectBody); calls to
	// module functions are resolved by propagation below.
	var queue []*cgNode
	for _, n := range g.order {
		ff := FuncFacts{TakesCtx: n.takesCtx, Spawns: n.spawns}
		if n.seedBlock != "" {
			ff.MayBlock = true
			ff.BlockReason = n.seedBlock
		}
		facts.funcs[n.fn] = ff
		if ff.MayBlock {
			queue = append(queue, n)
		}
	}

	// Fixed point: when a function becomes may-block, its synchronous
	// callers become may-block too ("calls <pkg>.<fn>").
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, caller := range callers[n.fn] {
			ff := facts.funcs[caller.fn]
			if ff.MayBlock {
				continue
			}
			ff.MayBlock = true
			ff.BlockReason = "calls " + qualifiedName(n.fn)
			facts.funcs[caller.fn] = ff
			queue = append(queue, caller)
		}
	}
	return facts
}

// qualifiedName renders a function as it would be written at a call
// site: "pkg.Fn" or "pkg.(*T).M" for methods.
func qualifiedName(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return fn.Name()
	}
	if named := recvNamed(fn); named != nil {
		return pkg.Name() + "." + named.Obj().Name() + "." + fn.Name()
	}
	return pkg.Name() + "." + fn.Name()
}

// blockingRoot reports whether a function declared outside the module
// is a known blocking primitive, and why. The set is deliberately
// conservative: fmt printing is excluded (stdout writes are treated as
// instantaneous for lint purposes), while synchronisation waits,
// sleeps, and file/network I/O count.
func blockingRoot(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	switch pkg.Path() {
	case "sync":
		if named := recvNamed(fn); named != nil {
			switch named.Obj().Name() + "." + fn.Name() {
			case "WaitGroup.Wait", "Cond.Wait", "Mutex.Lock",
				"RWMutex.Lock", "RWMutex.RLock", "Once.Do":
				return "calls sync." + named.Obj().Name() + "." + fn.Name(), true
			}
		}
		return "", false
	case "time":
		if fn.Name() == "Sleep" && recvNamed(fn) == nil {
			return "calls time.Sleep", true
		}
		return "", false
	case "os", "io", "bufio", "net", "net/http":
		if named := recvNamed(fn); named != nil {
			return "calls " + pkg.Name() + "." + named.Obj().Name() + "." + fn.Name(), true
		}
		return "calls " + pkg.Name() + "." + fn.Name(), true
	}
	return "", false
}
