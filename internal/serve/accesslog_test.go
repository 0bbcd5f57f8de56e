package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestServeAccessLogE2E drives a logged server through a browse + run
// round-trip and verifies every request produced one well-formed JSON
// access record. When CHIPVQA_SERVE_ACCESS_LOG names a path the log is
// written there (CI uploads it as a build artifact); otherwise it goes
// to a temp dir.
func TestServeAccessLogE2E(t *testing.T) {
	path := os.Getenv("CHIPVQA_SERVE_ACCESS_LOG")
	if path == "" {
		path = filepath.Join(t.TempDir(), "access.jsonl")
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(t)
	cfg.AccessLog = f
	_, ts := startServer(t, cfg)

	wantLines := 0
	get := func(p string, wantStatus int) {
		t.Helper()
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s = %d, want %d", p, resp.StatusCode, wantStatus)
		}
		wantLines++
	}
	get("/healthz", http.StatusOK)
	get("/v1/questions?category=Digital&limit=2", http.StatusOK)
	get("/v1/questions?category=bogus", http.StatusBadRequest)
	get("/v1/questions/no-such-id", http.StatusNotFound)
	st := postRun(t, ts, `{"models":["GPT4o"],"session":"logged"}`, http.StatusCreated)
	wantLines++
	waitTerminal(t, ts, st.ID) // polls GET /v1/runs/{id} — logged too
	get("/v1/runs/"+st.ID+"/report", http.StatusOK)

	// A client can read a whole response before the handler returns and
	// the middleware writes its record; Close waits for every in-flight
	// handler, so the log is complete before it is read back.
	ts.Close()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	logf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = logf.Close() }()

	type record struct {
		Time   string  `json:"time"`
		Method string  `json:"method"`
		Path   string  `json:"path"`
		Query  string  `json:"query"`
		Status int     `json:"status"`
		Bytes  int     `json:"bytes"`
		DurMS  float64 `json:"dur_ms"`
		Remote string  `json:"remote"`
	}
	var recs []record
	sc := bufio.NewScanner(logf)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("malformed access record %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(recs) < wantLines {
		t.Fatalf("log has %d records, want at least %d", len(recs), wantLines)
	}

	byKey := make(map[string]record)
	for _, r := range recs {
		if r.Method == "" || !strings.HasPrefix(r.Path, "/") || r.Status == 0 || r.Remote == "" {
			t.Errorf("incomplete record: %+v", r)
		}
		if _, err := time.Parse(time.RFC3339Nano, r.Time); err != nil {
			t.Errorf("record time %q is not RFC3339Nano: %v", r.Time, err)
		}
		byKey[r.Method+" "+r.Path] = r
	}
	checks := map[string]int{
		"GET /healthz":                      http.StatusOK,
		"GET /v1/questions":                 http.StatusBadRequest, // last hit wins: the bogus-category call
		"GET /v1/questions/no-such-id":      http.StatusNotFound,
		"POST /v1/runs":                     http.StatusCreated,
		"GET /v1/runs/" + st.ID + "/report": http.StatusOK,
	}
	for key, status := range checks {
		r, ok := byKey[key]
		if !ok {
			t.Errorf("no access record for %s", key)
			continue
		}
		if r.Status != status {
			t.Errorf("%s logged status %d, want %d", key, r.Status, status)
		}
		if r.Bytes <= 0 {
			t.Errorf("%s logged %d bytes", key, r.Bytes)
		}
	}
	if r := byKey["GET /v1/questions"]; r.Query != "category=bogus" {
		t.Errorf("query string not captured: %+v", r)
	}
}
