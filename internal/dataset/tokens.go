package dataset

import (
	"unicode"
)

// CountTokens approximates the prompt-token count the way byte-pair
// tokenizers behave on technical English: words, numbers, punctuation
// marks and operators each contribute tokens, and long words split into
// subword pieces of roughly four characters. Table I's prompt-token
// statistics are computed with this counter.
func CountTokens(s string) int {
	tokens := 0
	i := 0
	runes := []rune(s)
	for i < len(runes) {
		r := runes[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case unicode.IsLetter(r):
			j := i
			for j < len(runes) && (unicode.IsLetter(runes[j]) || runes[j] == '\'') {
				j++
			}
			word := j - i
			// Subword pieces of ~4 chars beyond the first 4.
			tokens += 1 + (word-1)/4
			i = j
		case unicode.IsDigit(r):
			j := i
			for j < len(runes) && (unicode.IsDigit(runes[j]) || runes[j] == '.') {
				j++
			}
			tokens += 1 + (j-i-1)/3
			i = j
		default:
			// Punctuation and operators: one token each, but collapse
			// runs of the same mark.
			j := i
			for j < len(runes) && runes[j] == r {
				j++
			}
			tokens++
			i = j
		}
	}
	return tokens
}

// TokenStats summarises a distribution of per-question prompt-token
// counts: the rows of the "Prompt Token" block of Table I.
type TokenStats struct {
	Mean float64
	Std  float64
	Min  int
	P25  int
	P50  int
	P75  int
	Max  int
}

// PromptTokenStats computes the Table I prompt-token statistics over the
// benchmark's question prompts (the crafted text, before answer options
// are appended — Table I describes "the prompts in each question").
func (b *Benchmark) PromptTokenStats() TokenStats {
	counts := make([]int, 0, len(b.Questions))
	for _, q := range b.Questions {
		counts = append(counts, CountTokens(q.Prompt))
	}
	return summarize(counts)
}

func summarize(counts []int) TokenStats {
	if len(counts) == 0 {
		return TokenStats{}
	}
	sorted := make([]int, len(counts))
	copy(sorted, counts)
	SortInts(sorted)
	var sum, sumSq float64
	for _, c := range counts {
		sum += float64(c)
		sumSq += float64(c) * float64(c)
	}
	n := float64(len(counts))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return TokenStats{
		Mean: mean,
		Std:  sqrt(variance),
		Min:  sorted[0],
		P25:  percentile(sorted, 0.25),
		P50:  percentile(sorted, 0.50),
		P75:  percentile(sorted, 0.75),
		Max:  sorted[len(sorted)-1],
	}
}

func percentile(sorted []int, p float64) int {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// sqrt is a dependency-free Newton iteration; the dataset package stays
// independent of math for this single use.
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}
