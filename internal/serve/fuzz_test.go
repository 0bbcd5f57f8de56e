package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/vlm"
)

var fuzzOnce struct {
	sync.Once
	handler http.Handler
	err     error
}

// fuzzHandler builds one tiny shared server for the whole fuzz run: a
// six-question benchmark, a single model and a one-worker pool, so
// inputs that do launch runs stay cheap.
func fuzzHandler() (http.Handler, error) {
	fuzzOnce.Do(func() {
		fixtureOnce.Do(func() {
			b, err := core.BuildBenchmark()
			if err != nil {
				fixtureErr = err
				return
			}
			fixtureBench = b
			fixtureModels = vlm.NewZoo(b).EvalModels()
		})
		if fixtureErr != nil {
			fuzzOnce.err = fixtureErr
			return
		}
		full, models := fixtureBench, fixtureModels
		if len(full.Questions) < 6 || len(models) == 0 {
			fuzzOnce.err = fmt.Errorf("fixture too small: %d questions, %d models", len(full.Questions), len(models))
			return
		}
		tiny := &dataset.Benchmark{Name: full.Name, Questions: full.Questions[:6]}
		s, err := New(Config{
			Benchmark:   tiny,
			Models:      models[:1],
			PoolWorkers: 1,
			MaxSessions: 4,
		})
		if err != nil {
			fuzzOnce.err = err
			return
		}
		fuzzOnce.handler = s.Handler()
	})
	return fuzzOnce.handler, fuzzOnce.err
}

// FuzzServeRequest throws arbitrary method/target/body triples at the
// full route table and requires that malformed input is always answered
// with a well-formed 4xx — never a panic, never a 5xx. (Goroutine
// hygiene is enforced statically: every `go` statement in this package
// must satisfy the goleak analyzer's join conventions, so a request
// that launches a run cannot strand its worker.)
func FuzzServeRequest(f *testing.F) {
	seeds := [][3]string{
		{"GET", "/healthz", ""},
		{"GET", "/v1/collections", ""},
		{"GET", "/v1/models", ""},
		{"GET", "/v1/questions", ""},
		{"GET", "/v1/questions?collection=standard&category=Digital&type=MC&limit=3&offset=1", ""},
		{"GET", "/v1/questions?category=nope", ""},
		{"GET", "/v1/questions?limit=-4", ""},
		{"GET", "/v1/questions/unknown-id", ""},
		{"GET", "/v1/questions/unknown-id/image.png?factor=3", ""},
		{"GET", "/v1/runs", ""},
		{"POST", "/v1/runs", `{"models":["GPT4o"],"workers":1}`},
		{"POST", "/v1/runs", `{"kind":"extended","seed":"fold-a","per_category":1,"shard_size":2}`},
		{"POST", "/v1/runs", `{"workers":-3}`},
		{"POST", "/v1/runs", `{"downsample":7}`},
		{"POST", "/v1/runs", `{"unknown_field":true}`},
		{"POST", "/v1/runs", `{"models":["NoSuchModel"]}`},
		{"POST", "/v1/runs", `not json at all`},
		{"GET", "/v1/runs/r9999", ""},
		{"GET", "/v1/runs/r0001/events?from=-2", ""},
		{"DELETE", "/v1/runs/%00", ""},
		{"PATCH", "/v1/questions", ""},
		{"GET", "//v1//questions/../runs", ""},
		{"POST", "/v1/runs", `{"models":["GPT4o"]} {"kind":"bogus"}`},
		{"POST", "/v1/runs", `{"workers":1}garbage`},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1], s[2])
	}
	f.Fuzz(func(t *testing.T, method, target, body string) {
		h, err := fuzzHandler()
		if err != nil {
			t.Fatal(err)
		}
		// Only well-formed request lines reach a real server's mux;
		// everything else is rejected by net/http before routing.
		if target == "" || !strings.HasPrefix(target, "/") {
			t.Skip()
		}
		if _, err := url.ParseRequestURI(target); err != nil {
			t.Skip()
		}
		req, err := http.NewRequest(method, "http://fuzz.local"+target, strings.NewReader(body))
		if err != nil {
			t.Skip() // invalid method token
		}
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("%s %q (body %q) answered %d:\n%s", method, target, body, rec.Code, rec.Body.String())
		}
		if rec.Code == 0 {
			t.Fatalf("%s %q never wrote a status", method, target)
		}
	})
}
