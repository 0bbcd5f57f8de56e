package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The module, loaded once and shared by the whole-module tests: the
// source importer type-checks the stdlib closure from GOROOT, which is
// the expensive part of a load.
var (
	moduleOnce   sync.Once
	moduleLoader *Loader
	modulePkgs   []*Package
	moduleErr    error
)

// loadModule returns the loader and every package of the real module.
func loadModule(t *testing.T) (*Loader, []*Package) {
	t.Helper()
	moduleOnce.Do(func() {
		moduleLoader, moduleErr = NewLoader(".")
		if moduleErr == nil {
			modulePkgs, moduleErr = moduleLoader.LoadAll()
		}
	})
	if moduleErr != nil {
		t.Fatalf("load module: %v", moduleErr)
	}
	if len(modulePkgs) < 10 {
		t.Fatalf("loaded only %d packages; module discovery is broken", len(modulePkgs))
	}
	return moduleLoader, modulePkgs
}

// reachKeep lists the functions no production root reaches that stay
// anyway, each with the test that needs it.
var reachKeep = map[string]string{
	"internal/eval.containsPhrase":             "string oracle for containsPhraseBytes",
	"internal/visual.DetailRetention":          "pixel ground truth for the LegibilityLoss ordering test",
	"internal/visual.edgeEnergy":               "pixel ground truth for the LegibilityLoss ordering test",
	"internal/dataset.ReadJSON":                "the WriteJSON round trip",
	"internal/dataset.jsonQuestion.toQuestion": "the WriteJSON round trip",
	"internal/arch.InOrderBaselineCycles":      "the SimulateOoO property test",
	"internal/vlm.SimulatedVLM.CorrectSet":     "judge cross-check",
	"internal/rng.NewStream":                   "draw-for-draw check against New",
	"internal/vlm.SimulatedVLM.SetPerception":  "the perception-bottleneck ablation in EXPERIMENTS.md",
	"internal/core.MustBuild":                  "cross-package test convenience",
	"internal/core.CollectExtended":            "cross-package test convenience",
}

// stdlibInterfaces are the interfaces through which the standard
// library calls module code. A method that implements one of them is
// live whether or not module code calls it.
var stdlibInterfaces = []struct{ pkg, name string }{
	{"fmt", "Stringer"}, {"fmt", "Formatter"},
	{"net/http", "Handler"}, {"net/http", "ResponseWriter"}, {"net/http", "Flusher"},
	{"io", "Reader"}, {"io", "Writer"}, {"io", "Closer"}, {"io", "StringWriter"},
	{"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
	{"sort", "Interface"}, {"container/heap", "Interface"},
	{"image", "Image"}, {"flag", "Value"},
	{"go/types", "Importer"}, {"math/rand/v2", "Source"},
}

// loadStdlibInterfaces resolves stdlibInterfaces, plus the universe
// error interface, through the loader's standard-library importer.
func loadStdlibInterfaces(loader *Loader) ([]*types.Interface, error) {
	ifaces := []*types.Interface{errorType.Underlying().(*types.Interface)}
	for _, si := range stdlibInterfaces {
		pkg, err := loader.Import(si.pkg)
		if err != nil {
			return nil, err
		}
		obj := pkg.Scope().Lookup(si.name)
		if obj == nil {
			return nil, fmt.Errorf("%s.%s not found", si.pkg, si.name)
		}
		ifaces = append(ifaces, obj.Type().Underlying().(*types.Interface))
	}
	return ifaces, nil
}

// implementsStdlib reports whether method fn is part of its receiver
// type's implementation of one of the interfaces.
func implementsStdlib(fn *types.Func, ifaces []*types.Interface) bool {
	named := recvNamed(fn)
	if named == nil || named.TypeParams().Len() > 0 {
		return false
	}
	for _, iface := range ifaces {
		if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() {
				return true
			}
		}
	}
	return false
}

// TestEveryFunctionIsReachable fails on any module function or method
// that no production root reaches: code only tests run is code the
// program does not need. The roots are every main and init, every
// package-level initializer, the exported API of the root package
// (with the exported methods of the types it re-exports or returns),
// and every function the _perfbench benchmark module uses. Edges are
// every use of a function object, so function values count, and a
// method called through an interface keeps every method of that name.
func TestEveryFunctionIsReachable(t *testing.T) {
	loader, pkgs := loadModule(t)
	ifaces, err := loadStdlibInterfaces(loader)
	if err != nil {
		t.Fatalf("stdlib interfaces: %v", err)
	}
	r := newReach(loader.ModulePath(), pkgs)
	for _, pkg := range pkgs {
		r.addRoots(pkg, ifaces)
	}
	perfbench, err := loadPerfbench(loader, pkgs[0].Fset)
	if err != nil {
		t.Fatalf("load _perfbench: %v", err)
	}
	for _, obj := range perfbench.Uses {
		if fn, ok := obj.(*types.Func); ok {
			r.mark(fn.Origin())
		}
	}
	r.walk()

	kept := make(map[string]bool)
	for _, n := range r.order {
		if r.live[n.fn] {
			continue
		}
		if _, ok := reachKeep[n.key]; ok {
			kept[n.key] = true
			continue
		}
		pos := n.pkg.Fset.Position(n.decl.Pos())
		rel, _ := filepath.Rel(loader.Root(), pos.Filename)
		t.Errorf("unreachable from every production root: %s:%d: %s", filepath.ToSlash(rel), pos.Line, n.key)
	}
	keys := make([]string, 0, len(reachKeep))
	for k := range reachKeep {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !kept[k] {
			t.Errorf("keep entry %q names no unreachable function; delete it", k)
		}
	}
}

// A reachNode is one declared module function.
type reachNode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
	key  string // "internal/vlm.SimulatedVLM.Answer"
	uses []*types.Func
}

// reach is the module's function-use graph and the live set computed
// over it.
type reach struct {
	modPath   string
	nodes     map[*types.Func]*reachNode
	order     []*reachNode
	byName    map[string][]*types.Func // method name -> concrete methods
	live      map[*types.Func]bool
	ifaceLive map[string]bool // method names called through an interface
	queue     []*types.Func
}

func newReach(modPath string, pkgs []*Package) *reach {
	r := &reach{
		modPath:   modPath,
		nodes:     make(map[*types.Func]*reachNode),
		byName:    make(map[string][]*types.Func),
		live:      make(map[*types.Func]bool),
		ifaceLive: make(map[string]bool),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &reachNode{fn: fn, decl: fd, pkg: pkg, key: r.key(fn)}
				if fd.Body != nil {
					n.uses = funcUses(pkg.Info, fd.Body)
				}
				r.nodes[fn] = n
				r.order = append(r.order, n)
				if fd.Recv != nil {
					r.byName[fn.Name()] = append(r.byName[fn.Name()], fn)
				}
			}
		}
	}
	return r
}

// key names fn by its module-relative package path, receiver type and
// name.
func (r *reach) key(fn *types.Func) string {
	path := strings.TrimPrefix(strings.TrimPrefix(fn.Pkg().Path(), r.modPath), "/")
	if named := recvNamed(fn); named != nil {
		return path + "." + named.Obj().Name() + "." + fn.Name()
	}
	return path + "." + fn.Name()
}

// funcUses lists every function object an AST subtree uses.
func funcUses(info *types.Info, node ast.Node) []*types.Func {
	var uses []*types.Func
	ast.Inspect(node, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				uses = append(uses, fn.Origin())
			}
		}
		return true
	})
	return uses
}

// addRoots marks the production roots one package declares.
func (r *reach) addRoots(pkg *Package, ifaces []*types.Interface) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				fn, _ := pkg.Info.Defs[decl.Name].(*types.Func)
				if fn == nil {
					continue
				}
				name := fn.Name()
				if decl.Recv == nil && (name == "init" || (name == "main" && pkg.Types.Name() == "main")) {
					r.mark(fn)
				}
				if decl.Recv != nil && implementsStdlib(fn, ifaces) {
					r.mark(fn)
				}
			case *ast.GenDecl:
				for _, fn := range funcUses(pkg.Info, decl) {
					r.mark(fn)
				}
			}
		}
	}
	if pkg.Path == r.modPath {
		r.addFacade(pkg)
	}
}

// addFacade marks the root package's exported functions and the
// exported methods of every type it declares, re-exports or returns.
func (r *reach) addFacade(pkg *Package) {
	seen := make(map[*types.Named]bool)
	var addType func(t types.Type)
	addType = func(t types.Type) {
		for {
			switch u := t.(type) {
			case *types.Pointer:
				t = u.Elem()
				continue
			case *types.Slice:
				t = u.Elem()
				continue
			case *types.Array:
				t = u.Elem()
				continue
			}
			break
		}
		named, ok := types.Unalias(t).(*types.Named)
		if !ok || seen[named] {
			return
		}
		seen[named] = true
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				r.mark(m)
			}
		}
	}
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		switch obj := obj.(type) {
		case *types.Func:
			r.mark(obj)
			addResults(obj, addType)
		case *types.TypeName:
			addType(obj.Type())
			if named, ok := types.Unalias(obj.Type()).(*types.Named); ok && named.Obj().Pkg() == pkg.Types {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						addResults(m, addType)
					}
				}
			}
		}
	}
}

// addResults feeds every result type of fn to add.
func addResults(fn *types.Func, add func(types.Type)) {
	res := fn.Type().(*types.Signature).Results()
	for i := 0; i < res.Len(); i++ {
		add(res.At(i).Type())
	}
}

// mark records fn as live and queues its body. A method of an
// interface keeps every concrete method of the same name.
func (r *reach) mark(fn *types.Func) {
	if fn == nil || r.live[fn] {
		return
	}
	r.live[fn] = true
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		if !r.ifaceLive[fn.Name()] {
			r.ifaceLive[fn.Name()] = true
			for _, m := range r.byName[fn.Name()] {
				r.mark(m)
			}
		}
		return
	}
	r.queue = append(r.queue, fn)
}

// walk follows uses from the queued functions to a fixed point.
func (r *reach) walk() {
	for len(r.queue) > 0 {
		fn := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		if n := r.nodes[fn]; n != nil {
			for _, callee := range n.uses {
				r.mark(callee)
			}
		}
	}
}

// loadPerfbench parses and type-checks the _perfbench module, which
// the loader skips like the go tool skips underscore directories. Its
// imports of this module resolve through the loader.
func loadPerfbench(loader *Loader, fset *token.FileSet) (*types.Info, error) {
	dir := filepath.Join(loader.Root(), "_perfbench")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
	conf := types.Config{Importer: loader}
	if _, err := conf.Check("repro/perfbench", fset, files, info); err != nil {
		return nil, err
	}
	return info, nil
}
