package main

import (
	"testing"
	"time"
)

// TestInjectedClockMeasuresElapsed drives the same pattern cmdPack
// uses for its encode and -check load timings (start := now(); ...;
// now().Sub(start)) against a scripted clock.
func TestInjectedClockMeasuresElapsed(t *testing.T) {
	defer func(orig func() time.Time) { now = orig }(now)
	base := time.Date(2025, time.March, 14, 9, 0, 0, 0, time.UTC)
	ticks := 0
	now = func() time.Time {
		ticks++
		return base.Add(time.Duration(ticks) * 250 * time.Millisecond)
	}
	start := now()
	elapsed := now().Sub(start)
	if elapsed != 250*time.Millisecond {
		t.Fatalf("elapsed = %v, want 250ms", elapsed)
	}
}
