package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// NoDeterm enforces the determinism seams of DESIGN.md §6: every run of
// the evaluation engine must be bit-reproducible, so no wall-clock
// reads, environment lookups or ad-hoc random generators may appear in
// library code. Allowed seams:
//
//   - internal/rng, the single randomness package (streams keyed by
//     rng.New/rng.Seed);
//   - files named clock.go, the injectable wall-clock seam (cmd/chipvqa
//     routes cmdPack's encode and -check load timings through one
//     `var now = time.Now` there, so tests can script it);
//   - _test.go files (excluded by the loader).
//
// Everything else must take time and randomness as inputs.
var NoDeterm = &Analyzer{
	Name: "nodeterm",
	Doc: "forbids time.Now/time.Since/os.Getenv and direct math/rand use outside " +
		"internal/rng and the clock.go seam; all randomness must be keyed through rng.New/rng.Seed",
	Run: runNoDeterm,
}

// timeFuncs are the wall-clock reads nodeterm forbids.
var timeFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// envFuncs are the os environment reads nodeterm forbids: they make
// output depend on ambient process state.
var envFuncs = map[string]bool{"Getenv": true, "LookupEnv": true, "Environ": true}

func runNoDeterm(pass *Pass) {
	if pathHasSuffix(pass.Pkg.Path, "internal/rng") {
		return // the blessed randomness seam
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		if isTestFile(pass.Pkg.Fset, f) {
			continue
		}
		if filepath.Base(pass.Pkg.Fset.Position(f.Pos()).Filename) == "clock.go" {
			continue // the blessed wall-clock seam
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := info.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			switch pn.Imported().Path() {
			case "time":
				if timeFuncs[sel.Sel.Name] {
					pass.Reportf(sel.Pos(),
						"time.%s reads the wall clock; inject it through a clock.go seam (var now = time.Now)",
						sel.Sel.Name)
				}
			case "os":
				if envFuncs[sel.Sel.Name] {
					pass.Reportf(sel.Pos(),
						"os.%s makes output depend on ambient environment; pass configuration explicitly",
						sel.Sel.Name)
				}
			case "math/rand", "math/rand/v2":
				pass.Reportf(sel.Pos(),
					"direct %s use breaks stream-keyed determinism; draw from internal/rng (rng.New/rng.Seed) instead",
					pn.Imported().Path())
			}
			return true
		})
	}
}
