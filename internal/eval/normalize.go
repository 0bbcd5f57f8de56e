// Package eval implements the hybrid evaluation harness of §IV: answer
// normalisation, an equivalence judge standing in for the paper's
// GPT-4-based auto-evaluation (rule-based and therefore exactly
// reproducible), Pass@1 metrics per discipline, and the evaluation
// runner that produces the rows of Tables II and III.
package eval

import (
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// appendNormalized appends the canonical form of s — the form short
// answers are compared in — to dst and returns the extended slice. It
// is the allocation-free core behind the judge's Scratch buffers:
// lowercase, collapse runs of Unicode whitespace to one ' ', drop `.`
// `,` `!` `"` (without interrupting a whitespace run), trim both ends.
//
//hot:normalize every judged response flows through here
func appendNormalized(dst []byte, s string) []byte {
	base := len(dst)
	lastSpace := false
	i := 0
	for i < len(s) {
		c := s[i]
		if c < utf8.RuneSelf {
			// ASCII fast path: no rune decoding, no case tables.
			switch {
			case c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r':
				if !lastSpace && len(dst) > base {
					dst = append(dst, ' ')
					lastSpace = true
				}
			case c == '.' || c == ',' || c == '!' || c == '"':
				// Sentence punctuation dropped; keep signs, parens, units.
			default:
				if c >= 'A' && c <= 'Z' {
					c += 'a' - 'A'
				}
				dst = append(dst, c)
				lastSpace = false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		i += size
		r = unicode.ToLower(r)
		switch {
		case unicode.IsSpace(r):
			if !lastSpace && len(dst) > base {
				dst = append(dst, ' ')
				lastSpace = true
			}
		default:
			dst = utf8.AppendRune(dst, r)
			lastSpace = false
		}
	}
	// At most one trailing collapsed space to trim.
	if lastSpace {
		dst = dst[:len(dst)-1]
	}
	return dst
}

// baseUnits are unit spellings reduced to a canonical token.
var baseUnits = map[string]string{
	"ohm": "ohm", "ohms": "ohm", "Ω": "ohm",
	"v": "v", "volt": "v", "volts": "v",
	"a": "a", "amp": "a", "amps": "a", "ampere": "a", "amperes": "a",
	"s": "s", "siemens": "s_siemens", "sec": "s", "second": "s", "seconds": "s",
	"hz": "hz", "hertz": "hz",
	"f": "f", "farad": "f", "farads": "f",
	"db":      "db",
	"degrees": "deg", "degree": "deg", "deg": "deg",
	"rad/s": "rad/s", "rads": "rad/s",
	"v/v": "v/v",
	"min": "min", "minute": "min", "minutes": "min",
	"nm": "nm", "um": "um", "mm": "mm", "cm": "cm", "ps": "ps", "ns": "ns",
	"mv": "mv", "mhz": "mhz", "khz": "khz", "ghz": "ghz",
	"cycles": "count", "cycle": "count", "hops": "count", "hop": "count",
	"sets": "count", "tracks": "count", "units": "count", "unit": "count",
	"edges": "count", "masks": "count", "dies": "count", "die": "count",
	"buffers": "count", "comparators": "count", "macs": "count",
	"violations": "count", "misses": "count", "hits": "count",
	"mispredictions": "count", "x": "count", "%": "percent", "percent": "percent",
	"cpi": "count", "mhz2": "mhz",
	"sq": "count", "ohm/sq": "ohm/sq", "ohms/sq": "ohm/sq",
	"gate": "count", "gates": "count", "delays": "count",
}

// ParseNumber extracts the first numeric value from a response together
// with any SI-scaled unit, returning the value scaled to base units and
// the canonical unit token (empty when none). ok is false when the
// response contains no number.
//
// Examples: "2.2 kOhm" -> (2200, "ohm"); "-10 V/V" -> (-10, "v/v");
// "about 43 nm of silicon" -> (43, "nm").
//
//hot:number per-event judge path for numeric answers; steady-state zero-alloc
func ParseNumber(resp string) (value float64, unit string, ok bool) {
	s := strings.TrimSpace(resp)
	// Find the first number. Digits and signs are ASCII, and ASCII bytes
	// never occur inside a multi-byte UTF-8 rune, so a byte scan over
	// the raw string is exact — no lowered copy needed.
	start := -1
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= '0' && c <= '9' {
			start = i
			break
		}
		if (c == '-' || c == '+') && i+1 < len(s) && s[i+1] >= '0' && s[i+1] <= '9' {
			start = i
			break
		}
	}
	if start < 0 {
		return 0, "", false
	}
	end := start
	if s[end] == '-' || s[end] == '+' {
		end++
	}
	seenDot := false
	seenExp := false
	for end < len(s) {
		c := s[end]
		switch {
		case c >= '0' && c <= '9':
			end++
		case c == '.' && !seenDot:
			seenDot = true
			end++
		case (c == 'e' || c == 'E') && !seenExp && end+1 < len(s) &&
			(s[end+1] == '-' || s[end+1] == '+' || s[end+1] >= '0' && s[end+1] <= '9'):
			// Exponent only when followed by digits (avoid eating words
			// like "edges").
			j := end + 1
			if s[j] == '-' || s[j] == '+' {
				j++
			}
			if j < len(s) && s[j] >= '0' && s[j] <= '9' {
				seenExp = true
				end = j
			} else {
				goto numDone
			}
		default:
			goto numDone
		}
	}
numDone:
	v, err := strconv.ParseFloat(s[start:end], 64)
	if err != nil {
		return 0, "", false
	}
	// Parse the unit token following the number, preserving case so the
	// mega/milli distinction ("Mrad/s" vs "mrad/s") survives.
	tok := leadingUnitToken(strings.TrimLeft(s[end:], " \t"))
	value, unit = applyUnit(v, tok)
	return value, unit, true
}

func leadingUnitToken(s string) string {
	end := 0
	for end < len(s) {
		c := s[end]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '/' || c == '%' {
			end++
		} else {
			break
		}
	}
	return s[:end]
}

// caseSensitivePrefixes maps SI prefixes preserving the mega/milli case
// distinction; tried longest first.
var caseSensitivePrefixes = []struct {
	text string
	mult float64
}{
	{"meg", 1e6}, {"Meg", 1e6}, {"MEG", 1e6},
	{"G", 1e9}, {"M", 1e6}, {"k", 1e3}, {"K", 1e3},
	{"m", 1e-3}, {"u", 1e-6}, {"n", 1e-9}, {"p", 1e-12}, {"f", 1e-15},
	{"N", 1e-9}, {"P", 1e-12},
}

// applyUnit resolves an attached unit token like "kOhm", "mV", "ns" into
// (scaledValue, canonicalBaseUnit). Well-known compound spellings are
// handled first; otherwise a case-sensitive SI prefix is split off.
// tok is ASCII by construction (leadingUnitToken admits only
// [a-zA-Z/%]), so an in-place ASCII fold into a stack buffer replaces
// the old strings.ToLower copy; only the unknown-unit fallback return
// still materialises a lowered string.
//
//hot:number unit resolution on the numeric judge path
func applyUnit(v float64, tok string) (float64, string) {
	if tok == "" {
		return v, ""
	}
	var arr [24]byte
	low := appendLowerASCII(arr[:0], tok)
	// Exact unit (handles compound tokens like mV, ns, kHz, rad/s
	// directly — these carry their own scale). "mhz" always means MHz:
	// millihertz does not occur in this domain.
	if u, ok := baseUnits[string(low)]; ok {
		switch {
		case string(low) == "mv":
			return v * 1e-3, "v"
		case string(low) == "khz":
			return v * 1e3, "hz"
		case string(low) == "mhz":
			return v * 1e6, "hz"
		case string(low) == "ghz":
			return v * 1e9, "hz"
		default:
			return v, u
		}
	}
	for _, p := range caseSensitivePrefixes {
		if strings.HasPrefix(tok, p.text) {
			if u, ok := baseUnits[string(low[len(p.text):])]; ok {
				return v * p.mult, u
			}
		}
	}
	return v, string(low)
}

// appendLowerASCII appends s to dst with A-Z folded to a-z. Exact for
// the ASCII-only tokens leadingUnitToken produces.
func appendLowerASCII(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// NumbersClose compares two values with a relative tolerance, treating
// tolerances below 1e-9 as exact comparison of rounded values.
func NumbersClose(a, b, tol float64) bool {
	if tol < 1e-9 {
		return a == b
	}
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := b
	if scale < 0 {
		scale = -scale
	}
	if scale < 1e-12 {
		return diff <= tol
	}
	return diff/scale <= tol
}
