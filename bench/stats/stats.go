// Package stats summarises benchmark samples and judges one set of runs
// against another. A summary is the median, the quartiles and the
// sample count; with ten samples per run no higher percentile has ten
// samples beyond it, so none is reported.
package stats

import (
	"math"
	"sort"
)

// Summary describes a sample.
type Summary struct {
	N      int
	Median float64
	// Q1 and Q3 are the first and third quartiles, computed the way
	// Python's statistics.quantiles(xs, n=4) computes them (the
	// "exclusive" method), so external checks reproduce them exactly.
	Q1, Q3 float64
}

// Summarize returns the summary of xs, leaving out failed runs (NaN).
// It does not modify xs.
func Summarize(xs []float64) Summary {
	var s []float64
	for _, x := range xs {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return Summary{}
	case 1:
		return Summary{N: 1, Median: s[0], Q1: s[0], Q3: s[0]}
	}
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return Summary{N: n, Median: med, Q1: quartile(s, 1), Q3: quartile(s, 3)}
}

// quartile is statistics.quantiles' exclusive interpolation for cut
// point i of 4 over sorted s (len(s) >= 2).
func quartile(s []float64, i int) float64 {
	m := len(s) + 1
	j := i * m / 4
	j = max(1, min(j, len(s)-1))
	delta := i*m - j*4
	return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
}

// Spread is the interquartile range as a share of the median's
// magnitude; 0 for a zero median.
func (s Summary) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// Verdict is the outcome of comparing a change's runs with its parent's.
type Verdict string

const (
	// Gain: the change wins at least nine tenths of at least ten paired
	// runs, and the medians differ by more than the parent's
	// interquartile range.
	Gain Verdict = "gain"
	// Regression: the change's median is worse than the parent's by
	// more than the bound.
	Regression Verdict = "regression"
	// Unresolved: the run-to-run spread of either side exceeds the
	// bound, and the change does not read better on every run than the
	// parent does on every run.
	Unresolved Verdict = "unresolved"
	// NoChange is every other outcome.
	NoChange Verdict = "no change"
)

// Compare judges change runs b against parent runs a. Run i of a is
// paired with run i of b, so the caller alternates which side runs
// first. A failed run is NaN: it keeps its place, so the pairing holds,
// and it never wins its pair. A change with more failed runs than its
// parent regresses. higherBetter gives the metric's direction; bound is
// the share of the parent's median by which the metric may worsen.
func Compare(a, b []float64, higherBetter bool, bound float64) Verdict {
	if failures(b) > failures(a) {
		return Regression
	}
	sa, sb := Summarize(a), Summarize(b)
	if sa.N == 0 || sb.N == 0 {
		return Unresolved
	}
	better := func(x, y float64) bool { // x reads better than y; false if either failed
		if higherBetter {
			return x > y
		}
		return x < y
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && (math.IsNaN(y) || better(x, y))
		}
	}
	if max(sa.Spread(), sb.Spread()) > bound && !allBetter {
		return Unresolved
	}
	worse := (sb.Median - sa.Median) / math.Abs(sa.Median)
	if higherBetter {
		worse = -worse
	}
	if worse > bound {
		return Regression
	}
	pairs := min(len(a), len(b))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	if pairs >= 10 && wins*10 >= pairs*9 && worse < 0 &&
		math.Abs(sb.Median-sa.Median) > sa.Q3-sa.Q1 {
		return Gain
	}
	return NoChange
}

func failures(xs []float64) int {
	n := 0
	for _, x := range xs {
		if math.IsNaN(x) {
			n++
		}
	}
	return n
}
