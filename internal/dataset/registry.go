package dataset

import (
	"fmt"
	"sort"
	"sync"
)

// Generator is one discipline's entry in the benchmark-assembly
// registry: a name, the discipline it covers, the fixed Table I
// question generator and the seed-parameterised extended generator.
// Discipline packages (internal/digital, internal/analog, ...)
// self-register from init, and internal/core assembles collections
// from the registry instead of hard-importing every discipline — the
// inversion that lets alternative assemblies (subsets, shards, new
// disciplines) plug in without touching core.
type Generator struct {
	// Name is the short registry key, conventionally the package name
	// ("digital", "analog", ...).
	Name string
	// Category is the discipline the generator covers; the registry
	// holds at most one generator per category.
	Category Category
	// Generate produces the discipline's share of the fixed
	// 142-question ChipVQA collection.
	Generate func() []*Question
	// GenerateExtra produces count additional seed-parameterised
	// questions for extended collections; distinct seeds must give
	// disjoint folds.
	GenerateExtra func(seed string, count int) []*Question
	// GenerateExtraRange produces only the extended questions with
	// within-category indices in [lo, hi) — the window primitive the
	// streaming shard API is built on. It must satisfy the prefix
	// contract: GenerateExtraRange(seed, lo, hi) is element-for-element
	// identical to GenerateExtra(seed, hi)[lo:], so shard assembly is
	// byte-identical to a monolithic build. Optional for back-compat;
	// when nil, ExtraRange falls back to generating the full prefix.
	GenerateExtraRange func(seed string, lo, hi int) []*Question
}

// ExtraRange returns g's extended questions with indices in [lo, hi),
// using the windowed generator when the discipline registered one and
// the (memory-proportional-to-hi) GenerateExtra prefix fallback
// otherwise. All five built-in disciplines register the windowed form.
func (g Generator) ExtraRange(seed string, lo, hi int) []*Question {
	if hi <= lo {
		return nil
	}
	if g.GenerateExtraRange != nil {
		return g.GenerateExtraRange(seed, lo, hi)
	}
	return g.GenerateExtra(seed, hi)[lo:]
}

// registry is the process-wide generator table. Registration happens
// from package init functions, reads happen at assembly time; the
// mutex covers the (rare) concurrent-test access pattern.
var registry struct {
	mu   sync.Mutex
	gens []Generator
}

// RegisterGenerator adds a discipline generator to the registry. It
// panics on incomplete entries or duplicate names/categories: both are
// wiring bugs that must fail at init, not at first use.
func RegisterGenerator(g Generator) {
	if g.Name == "" || g.Generate == nil || g.GenerateExtra == nil {
		panic(fmt.Sprintf("dataset: incomplete generator registration %+v", g))
	}
	if g.Category < 0 || g.Category >= numCategories {
		panic(fmt.Sprintf("dataset: generator %q registers unknown category %d", g.Name, g.Category))
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, have := range registry.gens {
		if have.Name == g.Name {
			panic(fmt.Sprintf("dataset: duplicate generator name %q", g.Name))
		}
		if have.Category == g.Category {
			panic(fmt.Sprintf("dataset: category %s already registered by %q", g.Category, have.Name))
		}
	}
	registry.gens = append(registry.gens, g)
}

// Generators returns the registered generators in canonical Table I
// category order, independent of registration (package-init) order, so
// every assembly built from the registry is deterministic.
func Generators() []Generator {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	out := make([]Generator, len(registry.gens))
	copy(out, registry.gens)
	sort.Slice(out, func(i, j int) bool { return out[i].Category < out[j].Category })
	return out
}
