package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro"
	"repro/internal/dataset"
)

// cmdServe runs the eval-as-a-service daemon: benchmark browsing,
// question-image rendering and live-streamed evaluation runs over
// HTTP (see internal/serve for the API). SIGINT/SIGTERM trigger a
// graceful drain: new runs are refused, in-flight runs get up to
// -drain-timeout to finish, stragglers are cancelled (each recording
// its deterministic prefix report) and then the listener closes.
func cmdServe(ctx context.Context, args []string) error {
	fs := newFlagSet("serve")
	addr := fs.String("addr", "127.0.0.1:8347", "listen address")
	workers := workersFlag(fs)
	maxSessions := fs.Int("max-sessions", 16, "concurrent tenant (session) cap")
	perSession := fs.Int("workers-per-session", 0, "per-run worker clamp (0 = pool split evenly across -max-sessions)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful drain bound after SIGINT/SIGTERM")
	packed := fs.String("packed", "", "also serve a .cvqb pack as the \"packed\" collection")
	shardSize := fs.Int("shard", 512, "shard size when loading -packed")
	budget := fs.Int64("cachebudget", 0, "scene-cache byte budget (0 = unlimited)")
	accessLog := fs.String("accesslog", "", "JSON-lines access log file (\"-\" = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return usagef("usage: chipvqa serve [flags]")
	}
	if err := checkShardBudget(*shardSize, *budget); err != nil {
		return err
	}
	suite, err := chipvqa.NewSuite()
	if err != nil {
		return err
	}
	if *budget > 0 {
		chipvqa.SetRenderCacheBudget(*budget)
	}
	var extra []chipvqa.ServerCollection
	if *packed != "" {
		bench, err := loadPackedCollection(*packed, *shardSize)
		if err != nil {
			return err
		}
		extra = append(extra, chipvqa.ServerCollection{Name: "packed", Benchmark: bench})
	}
	var logW *os.File
	if *accessLog == "-" {
		logW = os.Stdout
	} else if *accessLog != "" {
		f, err := os.Create(*accessLog)
		if err != nil {
			return err
		}
		defer func() {
			_ = f.Close()
		}()
		logW = f
	}
	cfg := chipvqa.ServerConfig{
		Extra:             extra,
		PoolWorkers:       *workers,
		MaxSessions:       *maxSessions,
		WorkersPerSession: *perSession,
	}
	if logW != nil {
		cfg.AccessLog = logW
	}
	srv, err := suite.NewServer(cfg)
	if err != nil {
		return err
	}
	return serveHTTP(ctx, srv, *addr, *drainTimeout)
}

// loadPackedCollection decodes a .cvqb pack shard-by-shard through
// StreamPack into one browsable benchmark.
func loadPackedCollection(path string, shardSize int) (*chipvqa.Benchmark, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	bench := &dataset.Benchmark{Name: "packed"}
	err = dataset.StreamPack(f, shardSize, func(sh dataset.Shard) error {
		bench.Questions = append(bench.Questions, sh.Questions...)
		return nil
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return bench, nil
}

// Connection limits for the daemon's HTTP server. They bound what a
// slow or hostile client can hold open: request headers must arrive
// within serveReadHeaderTimeout (a slow-header client is cut off), an
// idle keep-alive connection closes after serveIdleTimeout, and
// request headers are capped at serveMaxHeaderBytes. ReadTimeout and
// WriteTimeout stay unset on purpose: a streamed run's response lives
// as long as the run.
const (
	serveReadHeaderTimeout = 10 * time.Second
	serveIdleTimeout       = 2 * time.Minute
	serveMaxHeaderBytes    = 64 << 10
)

// newHTTPServer wraps the daemon's handler in the connection limits
// above.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: serveReadHeaderTimeout,
		IdleTimeout:       serveIdleTimeout,
		MaxHeaderBytes:    serveMaxHeaderBytes,
	}
}

// serveHTTP runs the listener until ctx is cancelled, then drains.
func serveHTTP(ctx context.Context, srv *chipvqa.Server, addr string, drainTimeout time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := newHTTPServer(srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Printf("chipvqa serve: listening on http://%s\n", ln.Addr())
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Printf("chipvqa serve: draining (up to %s)\n", drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	forced := srv.Drain(dctx)
	if forced > 0 {
		fmt.Printf("chipvqa serve: drain timeout — cancelled %d run(s), prefix reports recorded\n", forced)
	} else {
		fmt.Println("chipvqa serve: drained cleanly")
	}
	// Runs are all terminal now; close the listener and any lingering
	// connections (streams have already written their summaries).
	err = httpSrv.Close()
	<-errc // join the Serve goroutine (returns ErrServerClosed)
	return err
}
