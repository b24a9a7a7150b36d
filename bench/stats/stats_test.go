package stats

import (
	"math"
	"testing"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want Summary
	}{
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, Summary{N: 10, Median: 5.5, Q1: 2.75, Q3: 8.25}},
		// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
		{[]float64{4, 1, 3, 2}, Summary{N: 4, Median: 2.5, Q1: 1.25, Q3: 3.75}},
		// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
		{[]float64{3, 1, 2}, Summary{N: 3, Median: 2, Q1: 1, Q3: 3}},
		{[]float64{7}, Summary{N: 1, Median: 7, Q1: 7, Q3: 7}},
		{nil, Summary{}},
	} {
		if got := Summarize(tc.xs); got != tc.want {
			t.Errorf("Summarize(%v) = %+v, want %+v", tc.xs, got, tc.want)
		}
	}
}

// series returns n copies of v with a small deterministic jitter.
func series(n int, v float64, jitter ...float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
		if len(jitter) > 0 {
			out[i] += jitter[i%len(jitter)]
		}
	}
	return out
}

func shift(xs []float64, d float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x + d
	}
	return out
}

// failAt returns xs with run i failed.
func failAt(xs []float64, i int) []float64 {
	out := append([]float64(nil), xs...)
	out[i] = math.NaN()
	return out
}

func TestCompare(t *testing.T) {
	parent := series(10, 100, -1, 1, -0.5, 0.5, 0)
	for _, tc := range []struct {
		name         string
		a, b         []float64
		higherBetter bool
		bound        float64
		want         Verdict
	}{
		{"ties count for neither side", parent, parent, false, 0.05, NoChange},
		{"nine of ten wins beyond the IQR is a gain", parent,
			append(series(9, 95, -0.2, 0.2), 101.5), false, 0.05, Gain},
		{"eight of ten wins is not a gain", parent,
			append(series(8, 95, -0.2, 0.2), 101.5, 101.5), false, 0.05, NoChange},
		{"winning every pair inside the parent's IQR is not a gain", parent,
			shift(parent, -0.5), false, 0.05, NoChange},
		{"fewer than ten pairs cannot claim a gain", parent[:9],
			series(9, 95), false, 0.05, NoChange},
		{"direction: higher is better", parent,
			append(series(9, 105, -0.2, 0.2), 99), true, 0.05, Gain},
		{"worse by more than the bound regresses", parent,
			series(10, 110, -0.5, 0.5), false, 0.05, Regression},
		{"worse within the bound is no change", parent,
			series(10, 103, -0.5, 0.5), false, 0.05, NoChange},
		{"spread wider than the bound is unresolved", series(10, 100, -20, 20),
			series(10, 101, -20, 20), false, 0.05, Unresolved},
		{"a wide spread still resolves when every run is better", series(10, 100, -20, 20),
			series(10, 50, -20, 20), false, 0.05, Gain},
		{"a failed run on each side keeps the ten pairs", failAt(parent, 2),
			failAt(series(10, 95, -0.2, 0.2), 2), false, 0.05, Gain},
		{"a failed change run loses its pair", failAt(parent, 5),
			failAt(append(series(9, 95, -0.2, 0.2), 101.5), 0), false, 0.05, NoChange},
		{"more failed runs in the change regresses", parent,
			failAt(series(10, 95, -0.2, 0.2), 0), false, 0.05, Regression},
	} {
		if got := Compare(tc.a, tc.b, tc.higherBetter, tc.bound); got != tc.want {
			t.Errorf("%s: Compare = %q, want %q", tc.name, got, tc.want)
		}
	}
}
