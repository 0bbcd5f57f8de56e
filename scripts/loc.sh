#!/bin/sh
# Prints the non-test Go line count: every tracked .go file except
# tests, the _perfbench benchmark module and testdata corpora. The
# count is a tracked metric (ROADMAP.md) that should fall over time.
#
# Usage: scripts/loc.sh
set -e
cd "$(dirname "$0")/.."
git ls-files '*.go' | grep -v '_test.go$' | grep -v '^_perfbench/' | grep -v '/testdata/' | xargs cat | wc -l
