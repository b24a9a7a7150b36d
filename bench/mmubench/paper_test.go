package main

import (
	"context"
	"math"
	"testing"

	"mmutricks/internal/report"
)

func TestCellErr(t *testing.T) {
	for _, tc := range []struct {
		measured, paper string
		want            float64
		ok              bool
	}{
		{"2609 us", "3240 us", 631.0 / 3240, true},
		{"35.6 MB/s", "52 MB/s", 16.4 / 52, true},
		{"41.2 MB/s", "38 MB/s", 3.2 / 38, true},
		{"12 us", "12 MB/s", 0, false},             // unit mismatch
		{"247.86x faster", "80x faster", 0, false}, // not <number> <unit>
		{"2609 us", "(no table — composes §6.2 with §7)", 0, false},
		{"0.100", "0.1", 0, false}, // no unit
		{"1 us", "0 us", 0, false}, // no base
		{"FAILED(panic)", "3240 us", 0, false},
	} {
		got, ok := cellErr(tc.measured, tc.paper)
		if ok != tc.ok || math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("cellErr(%q, %q) = %v, %v; want %v, %v", tc.measured, tc.paper, got, ok, tc.want, tc.ok)
		}
	}
}

// TestPaperErrPctTable2 pins paper_err_pct over the table2 grid. Its 20
// pairs are every measured/paper cell but the row labels; the median
// falls between pipe bandwidth on the lazy 603 (35.6 vs 57 MB/s) and
// context switch on the 604 (2.39 vs 4 us).
func TestPaperErrPctTable2(t *testing.T) {
	e, ok := report.Find("table2")
	if !ok {
		t.Fatal("table2 is not registered")
	}
	tbl := e.Run(context.Background(), report.Quick)
	if got, want := paperErrPct([]*report.Table{tbl}), 100*(21.4/57+1.61/4)/2; math.Abs(got-want) > 1e-9 {
		t.Fatalf("paper_err_pct(table2) = %v, want %v\n%s", got, want, tbl.Render())
	}
}
