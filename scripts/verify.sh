#!/bin/sh
# Full tier-1 verification gate, in dependency order: vet, build, the
# static gates (gofmt + chipvqa-lint via scripts/lint.sh), the test
# suite, one iteration of every Go benchmark, and the race-enabled test
# suite. Everything that merges must pass this.
#
# Usage: scripts/verify.sh
set -e
cd "$(dirname "$0")/.."
echo "== go vet"
go vet ./...
echo "== go build"
go build ./...
echo "== lint (gofmt + chipvqa-lint)"
sh scripts/lint.sh
echo "== go test"
go test ./...
echo "== go test -bench (one iteration each)"
# Benchmark bodies carry their own checks (BenchmarkTableIIGridSharded
# b.Fatals on a digest mismatch across worker counts), and go test
# skips them unless asked: run each once so a panicking or failing
# benchmark breaks the gate.
go test -run '^$' -bench=. -benchtime=1x ./...
echo "== go test -race"
go test -race ./...
echo "== non-test Go LOC (information, not a gate): $(sh scripts/loc.sh)"
echo "verify: all tier-1 gates passed"
