package lint

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runCorpus loads the corpus package in testdata/<name>, runs the given
// analyzers, and checks every diagnostic against `// want "regexp"`
// expectation comments: each want must be matched by a diagnostic on
// its line, and every diagnostic must be wanted. Multiple quoted
// regexps on one want comment expect that many diagnostics on the line.
func runCorpus(t *testing.T, name string, analyzers ...*Analyzer) {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("load corpus %s: %v", name, err)
	}
	wants := collectWants(t, pkg)
	diags := Run([]*Package{pkg}, analyzers)
	matched := make([]bool, len(wants))
	for _, d := range diags {
		rendered := "[" + d.Analyzer + "] " + d.Message
		found := false
		for i, w := range wants {
			if matched[i] || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.rx.MatchString(rendered) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.rx)
		}
	}
}

// A want is one expectation parsed from a corpus comment.
type want struct {
	file string
	line int
	rx   *regexp.Regexp
}

// wantRx extracts the quoted regexps of a want comment; both "..." and
// `...` quoting are accepted (backticks avoid escaping in regexps).
var wantRx = regexp.MustCompile("\"([^\"]+)\"|`([^`]+)`")

// collectWants parses `// want "..."` comments out of a loaded package.
func collectWants(t *testing.T, pkg *Package) []want {
	t.Helper()
	var wants []want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				ms := wantRx.FindAllStringSubmatch(text, -1)
				if len(ms) == 0 {
					t.Fatalf("%s:%d: want comment with no quoted regexp", pos.Filename, pos.Line)
				}
				for _, m := range ms {
					expr := m[1]
					if expr == "" {
						expr = m[2]
					}
					rx, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, expr, err)
					}
					wants = append(wants, want{file: pos.Filename, line: pos.Line, rx: rx})
				}
			}
		}
	}
	return wants
}

func TestNoDetermCorpus(t *testing.T) { runCorpus(t, "nodeterm", NoDeterm) }
func TestMapOrderCorpus(t *testing.T) { runCorpus(t, "maporder", MapOrder) }
func TestErrDropCorpus(t *testing.T)  { runCorpus(t, "errdrop", ErrDrop) }
func TestHotAllocCorpus(t *testing.T) { runCorpus(t, "hotalloc", HotAlloc) }
func TestCtxFlowCorpus(t *testing.T)  { runCorpus(t, "ctxflow", CtxFlow) }
func TestGoLeakCorpus(t *testing.T)   { runCorpus(t, "goleak", GoLeak) }
func TestLockSafeCorpus(t *testing.T) { runCorpus(t, "locksafe", LockSafe) }

// TestDirectiveCorpus pins the suppression-placement index: a package
// dense with trailing and own-line directives must suppress exactly
// the covered lines (all directives used, so the stale check stays
// silent) while uncovered sites still fire.
func TestDirectiveCorpus(t *testing.T) { runCorpus(t, "directive", NoDeterm) }

// TestModuleIsLintClean is the meta-test behind the build gate: the
// real module, in full, must produce zero diagnostics from every
// analyzer. cmd/chipvqa-lint enforces the same property from the
// command line; this keeps it enforced by `go test ./...` alone.
func TestModuleIsLintClean(t *testing.T) {
	_, pkgs := loadModule(t)
	for _, d := range Run(pkgs, All()) {
		t.Errorf("module not lint-clean: %s", d)
	}
}
