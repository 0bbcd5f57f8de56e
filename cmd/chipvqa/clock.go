// clock.go is the CLI's single wall-clock seam. The nodeterm analyzer
// (internal/lint) forbids time.Now everywhere except internal/rng and
// files named clock.go, so cmdPack's encode and -check load timings
// route through the injectable `now` below: tests can script it and
// the rest of the binary stays clock-free by construction.
package main

import "time"

// now is the injectable wall clock; only cmdPack's timings read it.
var now = time.Now
