package report

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"mmutricks/internal/clock"
	"mmutricks/internal/workpool"
)

func resetPool(t *testing.T) {
	t.Cleanup(func() { SetParallelism(runtime.GOMAXPROCS(0)) })
}

// TestRunAllDeterministicAcrossParallelism is the harness's core
// contract: the full registry rendered from a sequential run and from
// an 8-worker run must be byte-identical, and must match the committed
// BENCH_harness.json: the same experiment ids in the same order, and
// each experiment's counter_checksum, a fingerprint of its render. Each
// experiment is its own subtest, so a failure names the experiment.
func TestRunAllDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry twice is slow; run without -short")
	}
	if raceEnabled {
		t.Skip("full registry twice is impractically slow under the race detector (TestRunnerSmallConcurrent covers racing)")
	}
	resetPool(t)
	blob, err := os.ReadFile("../../BENCH_harness.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Experiments []struct {
			ID              string `json:"id"`
			CounterChecksum string `json:"counter_checksum"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("BENCH_harness.json: %v", err)
	}
	want := map[string]string{}
	var wantIDs, gotIDs []string
	for _, e := range doc.Experiments {
		want[e.ID] = e.CounterChecksum
		wantIDs = append(wantIDs, e.ID)
	}

	seqRuns := RunAll(context.Background(), Quick, 1)
	parRuns := RunAll(context.Background(), Quick, 8)
	if len(seqRuns) != len(parRuns) {
		t.Fatalf("-j 1 ran %d experiments, -j 8 ran %d", len(seqRuns), len(parRuns))
	}
	const repin = "regenerate BENCH_harness.json with `make bench` only as a deliberate re-pin (ROADMAP item 1)"
	for i, seq := range seqRuns {
		id := seq.Experiment.ID
		gotIDs = append(gotIDs, id)
		par := parRuns[i]
		t.Run(id, func(t *testing.T) {
			for _, r := range []RunResult{seq, par} {
				if r.Err != nil {
					t.Fatalf("experiment %s failed: %v", r.Experiment.ID, r.Err)
				}
			}
			if par.Experiment.ID != id {
				t.Fatalf("-j 8 result %d is %s, -j 1 result is %s", i, par.Experiment.ID, id)
			}
			if len(seq.Table.Rows) == 0 {
				t.Fatalf("%s produced no rows", id)
			}
			if s, p := seq.Table.Render(), par.Table.Render(); s != p {
				t.Fatalf("-j 1 and -j 8 output of %s differ: -j1 %d bytes, -j8 %d bytes", id, len(s), len(p))
			}
			if sum, ok := want[id]; ok && sum != seq.Table.CounterChecksum() {
				t.Errorf("simulated counters moved: the counter_checksum of %s differs from BENCH_harness.json; %s", id, repin)
			}
		})
	}
	if !slices.Equal(gotIDs, wantIDs) {
		t.Errorf("experiment ids differ from BENCH_harness.json; %s\ngot  %q\nwant %q", repin, gotIDs, wantIDs)
	}
}

// TestRunnerSmallConcurrent exercises the worker pool and RowSet with
// synthetic experiments; it is cheap enough to run under -race, where
// it is the runner's data-race probe.
func TestRunnerSmallConcurrent(t *testing.T) {
	resetPool(t)
	const n = 12
	exps := make([]Experiment, n)
	for i := range exps {
		i := i
		exps[i] = Experiment{
			ID: fmt.Sprintf("synthetic-%02d", i),
			Run: func(ctx context.Context, _ Scale) *Table {
				cells := make([]string, 8)
				RowSet(ctx, len(cells), func(r int) {
					cells[r] = fmt.Sprintf("%d*%d=%d", i, r, i*r)
				})
				return &Table{ID: fmt.Sprintf("synthetic-%02d", i), Rows: [][]string{cells}}
			},
		}
	}
	SetParallelism(4)
	res := runExperiments(context.Background(), exps, Quick, 4)
	if len(res) != n {
		t.Fatalf("got %d results, want %d", len(res), n)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("experiment %d: %v", i, r.Err)
		}
		if r.Experiment.ID != exps[i].ID || r.Table.ID != exps[i].ID {
			t.Fatalf("result %d out of order: got %s/%s", i, r.Experiment.ID, r.Table.ID)
		}
		for c := 0; c < 8; c++ {
			want := fmt.Sprintf("%d*%d=%d", i, c, i*c)
			if r.Table.Rows[0][c] != want {
				t.Fatalf("result %d cell %d = %q, want %q", i, c, r.Table.Rows[0][c], want)
			}
		}
	}
}

// TestRunnerPanicIsolation checks a panicking experiment surfaces as an
// Err without taking down its siblings — including a panic raised
// inside a RowSet row goroutine.
func TestRunnerPanicIsolation(t *testing.T) {
	resetPool(t)
	exps := []Experiment{
		{ID: "boom-direct", Run: func(ctx context.Context, _ Scale) *Table { panic("kaboom-direct") }},
		{ID: "fine", Run: func(ctx context.Context, _ Scale) *Table { return &Table{ID: "fine"} }},
		{ID: "boom-rowset", Run: func(ctx context.Context, _ Scale) *Table {
			RowSet(ctx, 4, func(i int) {
				if i == 2 {
					panic("kaboom-row")
				}
			})
			return &Table{ID: "boom-rowset"}
		}},
	}
	SetParallelism(3)
	res := runExperiments(context.Background(), exps, Quick, 3)
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "kaboom-direct") {
		t.Errorf("boom-direct: want contained panic, got %v", res[0].Err)
	}
	if res[0].Table == nil || !strings.Contains(res[0].Table.Render(), "FAILED(panic)") {
		t.Errorf("boom-direct: want FAILED(panic) placeholder table, got %+v", res[0].Table)
	}
	if res[1].Err != nil || res[1].Table == nil || res[1].Table.ID != "fine" {
		t.Errorf("fine experiment damaged by sibling panic: %+v", res[1])
	}
	if res[2].Err == nil || !strings.Contains(res[2].Err.Error(), "kaboom-row") {
		t.Errorf("boom-rowset: want contained row panic, got %v", res[2].Err)
	}
	if res[2].Table == nil || !strings.Contains(res[2].Table.Render(), "FAILED(panic)") {
		t.Errorf("boom-rowset: want FAILED(panic) placeholder table, got %+v", res[2].Table)
	}
}

// TestRunnerBudgetDegradation is the watchdog path end to end: an
// experiment whose ledger blows its cycle budget degrades to a
// FAILED(cycle-budget) cell — including when the trip happens inside a
// RowSet row goroutine, where the panic arrives re-raised as a string.
func TestRunnerBudgetDegradation(t *testing.T) {
	resetPool(t)
	burn := func() {
		l := clock.NewLedger(100)
		l.SetBudget(1000)
		for i := 0; i < 100; i++ {
			l.Charge(100)
		}
	}
	exps := []Experiment{
		{ID: "burn-direct", Run: func(ctx context.Context, _ Scale) *Table { burn(); return nil }},
		{ID: "burn-rowset", Run: func(ctx context.Context, _ Scale) *Table {
			RowSet(ctx, 4, func(i int) {
				if i == 3 {
					burn()
				}
			})
			return &Table{ID: "burn-rowset"}
		}},
		{ID: "frugal", Run: func(ctx context.Context, _ Scale) *Table { return &Table{ID: "frugal"} }},
	}
	SetParallelism(2)
	res := runExperiments(context.Background(), exps, Quick, 2)
	for _, i := range []int{0, 1} {
		if res[i].Err == nil || !strings.Contains(res[i].Err.Error(), "cycle budget exceeded") {
			t.Errorf("%s: want budget panic in Err, got %v", res[i].Experiment.ID, res[i].Err)
		}
		if res[i].Table == nil || !strings.Contains(res[i].Table.Render(), "FAILED(cycle-budget)") {
			t.Errorf("%s: want FAILED(cycle-budget) placeholder, got %+v", res[i].Experiment.ID, res[i].Table)
		}
	}
	if res[2].Err != nil || res[2].Table == nil || res[2].Table.ID != "frugal" {
		t.Errorf("frugal experiment damaged by sibling budget trips: %+v", res[2])
	}
}

// TestRunAllArmsDefaultBudget checks RunAll installs the watchdog for
// ledgers created while it runs, and restores the previous default
// afterwards.
func TestRunAllArmsDefaultBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full registry")
	}
	resetPool(t)
	old := clock.SetDefaultBudget(0)
	defer clock.SetDefaultBudget(old)
	for _, r := range RunAll(context.Background(), Quick, 4) {
		if r.Err != nil {
			t.Fatalf("experiment %s failed under the default budget: %v", r.Experiment.ID, r.Err)
		}
	}
	if got := clock.SetDefaultBudget(0); got != 0 {
		t.Errorf("RunAll left default budget %d armed", got)
	}
}

// TestRunOneCancellation pins the classification of cooperative
// cancellation: a cancelled context degrades the experiment to a
// FAILED(canceled) placeholder (FAILED(timeout) for deadlines) without
// running any rows, and FailReason carries the class for the exit-code
// and retry policies layered on top.
func TestRunOneCancellation(t *testing.T) {
	resetPool(t)
	SetParallelism(2)
	e := Experiment{ID: "cancel-me", Title: "x", Run: func(ctx context.Context, _ Scale) *Table {
		RowSet(ctx, 4, func(i int) {})
		return &Table{ID: "cancel-me"}
	}}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := RunOne(ctx, e, Quick)
	if r.FailReason != "canceled" {
		t.Errorf("cancelled: FailReason = %q, want canceled", r.FailReason)
	}
	if r.Table == nil || !strings.Contains(r.Table.Render(), "FAILED(canceled)") {
		t.Errorf("cancelled: want FAILED(canceled) placeholder, got %+v", r.Table)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	r = RunOne(dctx, e, Quick)
	if r.FailReason != "timeout" {
		t.Errorf("deadline: FailReason = %q, want timeout", r.FailReason)
	}
	if r.Err == nil || !strings.Contains(r.Err.Error(), "timeout") {
		t.Errorf("deadline: Err = %v, want timeout classification", r.Err)
	}

	// A live context runs normally and leaves FailReason empty.
	if r = RunOne(context.Background(), e, Quick); r.Err != nil || r.FailReason != "" {
		t.Errorf("live context: unexpected failure %v (%q)", r.Err, r.FailReason)
	}
}

// TestRowSetInlineWhenExhausted verifies RowSet falls back to inline
// execution (and still completes every index) when the pool has no
// spare tokens.
func TestRowSetInlineWhenExhausted(t *testing.T) {
	resetPool(t)
	SetParallelism(1)
	release := workpool.Acquire() // simulate the experiment itself holding the only token
	defer release()
	done := make([]bool, 16)
	RowSet(context.Background(), len(done), func(i int) { done[i] = true })
	for i, d := range done {
		if !d {
			t.Fatalf("row %d never ran", i)
		}
	}
}
