#!/bin/sh
# Run the repo's static gates: gofmt formatting plus the concurrency /
# determinism / error-handling analyzers (cmd/chipvqa-lint) over the
# whole module. Part of tier-1 verify; see DESIGN.md §9 for what each
# analyzer enforces and the `//lint:ignore <analyzer> <reason>`
# suppression policy.
#
# Usage: scripts/lint.sh [-only analyzer[,analyzer...]] [-json]
#
# Exit status mirrors the driver so CI can tell findings from breakage:
#   0  clean
#   1  gofmt violations or analyzer findings (actionable, fail the PR)
#   2  the driver failed to build or the module failed to load
#      (infrastructure problem, not a lint verdict)
set -u
cd "$(dirname "$0")/.."

# Formatting gate: gofmt -l prints offending files and stays exit 0, so
# turn any output into a failure.
unformatted="$(gofmt -l .)" || exit 2
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

# Build the driver explicitly rather than hiding it inside `go run`: a
# compile failure must surface as exit 2, not be conflated with the
# driver's own findings exit (go run reports 1 for both).
bin="$(mktemp -d)" || exit 2
trap 'rm -rf "$bin"' EXIT
if ! go build -o "$bin/chipvqa-lint" ./cmd/chipvqa-lint; then
    echo "lint.sh: building cmd/chipvqa-lint failed" >&2
    exit 2
fi

"$bin/chipvqa-lint" "$@" ./...
status=$?
if [ "$status" -ge 2 ]; then
    echo "lint.sh: chipvqa-lint internal/load error (exit $status)" >&2
fi
exit "$status"
