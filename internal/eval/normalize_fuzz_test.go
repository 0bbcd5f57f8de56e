package eval

import (
	"math"
	"strings"
	"testing"
)

// FuzzParseNumber drives the number extractor with arbitrary responses.
// The invariants: never panic, never report ok for an input with no
// digit, never produce NaN, and always return a canonical (lowercase)
// unit token.
func FuzzParseNumber(f *testing.F) {
	for _, seed := range []string{
		"2.2 kOhm", "-10 V/V", "about 43 nm of silicon", "+3.3V",
		"1e3 Hz", "9e999", "1.5GHz", "2 MegOhm", "-40 degrees",
		"no number here", "", "-", "+", "e5", "0x1f", "..5", "1.2.3",
		"∞ ohms", "１２３", "-0", "1e", "1e+", "470uF and 2 mV",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, resp string) {
		v, unit, ok := ParseNumber(resp)
		if !ok {
			if v != 0 || unit != "" {
				t.Fatalf("ParseNumber(%q) not ok but returned (%v, %q)", resp, v, unit)
			}
			return
		}
		if !strings.ContainsAny(resp, "0123456789") {
			t.Fatalf("ParseNumber(%q) ok without any digit", resp)
		}
		if math.IsNaN(v) {
			t.Fatalf("ParseNumber(%q) produced NaN", resp)
		}
		if unit != strings.ToLower(unit) {
			t.Fatalf("ParseNumber(%q) unit %q not canonical lowercase", resp, unit)
		}
	})
}

// FuzzNormalize checks normalisation is idempotent and produces the
// canonical form: no uppercase ASCII, no dropped punctuation, no runs
// of spaces, no leading/trailing space.
func FuzzNormalize(f *testing.F) {
	for _, seed := range []string{
		"  The  Answer. ", "NAND!", "2.5, roughly", "\"quoted\"",
		"multi\nline\tresponse", "數字", "a", "", "-3 dB.",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n := normalize(s)
		if again := normalize(n); again != n {
			t.Fatalf("normalize not idempotent: %q -> %q -> %q", s, n, again)
		}
		if strings.ContainsAny(n, "ABCDEFGHIJKLMNOPQRSTUVWXYZ.,!\"") {
			t.Fatalf("normalize(%q) = %q kept case or dropped punctuation", s, n)
		}
		if strings.Contains(n, "  ") || n != strings.TrimSpace(n) {
			t.Fatalf("normalize(%q) = %q has uncollapsed whitespace", s, n)
		}
	})
}

// TestParseNumberSignedAndPrefixed is the table the fuzz targets grew out
// of: signed values and SI-prefixed units, including the case-sensitive
// mega/milli split, reduce to base units.
func TestParseNumberSignedAndPrefixed(t *testing.T) {
	cases := []struct {
		resp  string
		value float64
		unit  string
	}{
		{"-3.3 V", -3.3, "v"},
		{"+5v", 5, "v"},
		{"2.2 kOhm", 2200, "ohm"},
		{"-10 V/V", -10, "v/v"},
		{"470uF", 470e-6, "f"},
		{"1.5GHz", 1.5e9, "hz"},
		{"2 MegOhm", 2e6, "ohm"},
		{"2 Mrad/s", 2e6, "rad/s"},
		{"2 mrad/s", 2e-3, "rad/s"},
		{"+0.5 mV", 0.5e-3, "v"},
		{"gain is -1e2 V/V overall", -100, "v/v"},
		{"-40 degrees", -40, "deg"},
		{"roughly -2.5e-3 A", -2.5e-3, "a"},
	}
	for _, c := range cases {
		v, unit, ok := ParseNumber(c.resp)
		if !ok {
			t.Errorf("ParseNumber(%q) not ok", c.resp)
			continue
		}
		if !NumbersClose(v, c.value, 1e-9) || unit != c.unit {
			t.Errorf("ParseNumber(%q) = (%v, %q), want (%v, %q)",
				c.resp, v, unit, c.value, c.unit)
		}
	}
	for _, bad := range []string{"", "no digits", "-", "+ volts"} {
		if _, _, ok := ParseNumber(bad); ok {
			t.Errorf("ParseNumber(%q) ok, want not ok", bad)
		}
	}
}

// TestContainsPhraseBoundaries exercises the word-boundary matcher
// directly at its edges: substring hits inside words must be rejected,
// and the scan must keep looking past a mid-word hit for a later
// boundary-aligned one.
func TestContainsPhraseBoundaries(t *testing.T) {
	cases := []struct {
		haystack, needle string
		want             bool
	}{
		{"and", "and", true},
		{"and gate", "and", true},
		{"x and y", "and", true},
		{"nand and", "and", true}, // first hit mid-word, second aligned
		{"operand and", "and", true},
		{"standard", "and", false}, // inside a word
		{"operand", "and", false},
		{"and5", "and", false}, // digits are word chars
		{"5and", "and", false},
		{"and-gate", "and", true}, // '-' is a boundary
		{"a", "a", true},          // single-char: exact match only
		{"a b", "a", false},
		{"", "and", false},
		{"anything", "", false},
	}
	for _, c := range cases {
		if got := containsPhrase(c.haystack, c.needle); got != c.want {
			t.Errorf("containsPhrase(%q, %q) = %v, want %v",
				c.haystack, c.needle, got, c.want)
		}
	}
}
