package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// TestCmdServeInterrupted mirrors TestCmdRenderInterrupted for the
// daemon: a dead context must take cmdServe straight through the drain
// path and out, not leave it listening.
func TestCmdServeInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() {
		done <- cmdServe(ctx, []string{"-addr", "127.0.0.1:0", "-drain-timeout", "1s"})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("cmdServe on dead ctx = %v, want nil (clean drain)", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cmdServe did not exit after cancellation")
	}
}

// TestCmdServeUsage pins flag/operand misuse to the usage exit code.
func TestCmdServeUsage(t *testing.T) {
	err := cmdServe(context.Background(), []string{"stray-operand"})
	if exitCode(err) != 2 {
		t.Fatalf("stray operand: exit %d (%v), want 2", exitCode(err), err)
	}
	// A bad -packed path is a runtime failure, not misuse.
	err = cmdServe(context.Background(), []string{"-packed", filepath.Join(t.TempDir(), "missing.cvqb")})
	if exitCode(err) != 1 {
		t.Fatalf("missing pack: exit %d (%v), want 1", exitCode(err), err)
	}
}

// TestServeHTTPServerLimits pins the daemon's connection limits: the
// server serveHTTP listens with must bound header reads, idle
// keep-alives and header size, and must leave the whole-request read
// and write deadlines unset so long streamed runs are not cut off.
func TestServeHTTPServerLimits(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != serveReadHeaderTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, serveReadHeaderTimeout)
	}
	if srv.IdleTimeout != serveIdleTimeout || srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", srv.IdleTimeout, serveIdleTimeout)
	}
	if srv.MaxHeaderBytes != serveMaxHeaderBytes || srv.MaxHeaderBytes <= 0 {
		t.Errorf("MaxHeaderBytes = %d, want %d", srv.MaxHeaderBytes, serveMaxHeaderBytes)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Errorf("ReadTimeout/WriteTimeout = %v/%v, want unset for streamed runs", srv.ReadTimeout, srv.WriteTimeout)
	}
}

// TestCmdServeEndToEnd boots the real daemon on a loopback port with a
// packed extra collection, talks to it over HTTP, then cancels the
// context and expects a clean drain.
func TestCmdServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	packPath := filepath.Join(dir, "extra.cvqb")
	ext, err := core.CollectExtended("cmd-serve", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(packPath)
	if err != nil {
		t.Fatal(err)
	}
	pw := dataset.NewPackWriter(f, ext.Name)
	for _, q := range ext.Questions {
		if err := pw.WriteQuestion(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The daemon prints its bound address; capture stdout via a pipe.
	oldStdout := os.Stdout
	pr, pwipe, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = pwipe
	t.Cleanup(func() { os.Stdout = oldStdout })

	logPath := filepath.Join(dir, "access.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- cmdServe(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-packed", packPath,
			"-accesslog", logPath,
			"-drain-timeout", "10s",
		})
	}()

	sc := bufio.NewScanner(pr)
	var baseURL string
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "http://"); i >= 0 {
			baseURL = strings.TrimSpace(line[i:])
			break
		}
	}
	if baseURL == "" {
		cancel()
		t.Fatalf("daemon never announced its address (scan err %v)", sc.Err())
	}

	resp, err := http.Get(baseURL + "/v1/questions?collection=packed")
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	var qs struct {
		Total int `json:"total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qs); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK || qs.Total != ext.Len() {
		t.Fatalf("packed collection: status %d total %d, want 200/%d", resp.StatusCode, qs.Total, ext.Len())
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after cancellation")
	}
	_ = pwipe.Close()

	logBytes, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(logBytes), `"path":"/v1/questions"`) {
		t.Errorf("access log missing the browse request:\n%s", logBytes)
	}
}
