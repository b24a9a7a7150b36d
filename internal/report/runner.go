package report

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mmutricks/internal/clock"
	"mmutricks/internal/workpool"
)

// The harness parallelism is a single token pool (internal/workpool)
// shared by the experiment-level worker pool (RunAll), the row-level
// helper (RowSet) and the chaos soak harness: each running experiment
// holds one token, and RowSet borrows whatever tokens are idle for its
// rows, running the rest inline. Total concurrency therefore never
// exceeds the configured -j, whichever level the parallelism comes
// from. These wrappers keep the report-facing API in one place.

// SetParallelism sizes the harness worker pool. j < 1 is treated as 1.
// It must not be called while experiments are running.
func SetParallelism(j int) { workpool.SetParallelism(j) }

// Parallelism returns the configured worker count.
func Parallelism() int { return workpool.Parallelism() }

// RowSet runs fn(0..n-1) — the independent machine-configuration rows
// of one experiment — concurrently on whatever harness tokens are idle,
// running the remainder inline on the calling goroutine. Callers gather
// results by index, so output is deterministic at any parallelism. A
// panic in any row is re-raised on the calling goroutine (annotated
// with the row's stack), so RunAll's per-experiment isolation still
// contains it. Cancellation is cooperative at row granularity: once
// ctx is done no further rows start, and RowSet panics *workpool.
// Canceled so the experiment degrades to a FAILED(canceled) or
// FAILED(timeout) cell instead of rendering an incomplete table.
func RowSet(ctx context.Context, n int, fn func(i int)) { workpool.RowSet(ctx, n, fn) }

// rowBudgetCycles is the per-ledger watchdog RunAll arms: any single
// simulated machine charging this many cycles has hung (the largest
// full-scale experiment rows stay orders of magnitude below it), so
// the ledger panics and the row degrades to a FAILED(cycle-budget)
// cell instead of wedging the whole report run.
const rowBudgetCycles clock.Cycles = 1 << 40

// RunResult is the outcome of one experiment under RunAll.
type RunResult struct {
	Experiment Experiment
	// Table is the rendered result. When the experiment panicked it is
	// a one-cell FAILED(<reason>) placeholder so the report still
	// renders every registry entry in order.
	Table *Table
	// Err carries a panic (with stack) the runner contained.
	Err error
	// FailReason classifies a contained failure: "panic",
	// "cycle-budget", "canceled", or "timeout" (empty when Err is nil).
	// cmd exit codes key off it.
	FailReason string
	// Wall is host wall-clock time spent inside Run.
	Wall time.Duration
	// SimCycles is the simulated work the experiment charged, read from
	// the process-wide cycle meter. Attribution is only exact when
	// experiments run sequentially (parallelism 1); under a parallel
	// run concurrent experiments bleed into each other's readings.
	SimCycles uint64
}

// RunAll executes every registered experiment on a pool of
// `parallelism` workers. Results are gathered by index and returned in
// registry (All) order, so rendering them in sequence yields output
// byte-identical to a sequential run. A panicking experiment is
// contained: its RunResult carries the error and the remaining
// experiments still run. Cancelling ctx stops scheduling new
// experiments and new rows; experiments cut off mid-run degrade to
// FAILED(canceled)/FAILED(timeout) placeholders.
func RunAll(ctx context.Context, scale Scale, parallelism int) []RunResult {
	SetParallelism(parallelism)
	old := clock.SetDefaultBudget(rowBudgetCycles)
	defer clock.SetDefaultBudget(old)
	return runExperiments(ctx, All(), scale, parallelism)
}

// runExperiments is RunAll over an explicit experiment list (tests use
// it to drive small subsets). SetParallelism must already reflect
// `parallelism`.
func runExperiments(ctx context.Context, exps []Experiment, scale Scale, parallelism int) []RunResult {
	out := make([]RunResult, len(exps))
	workers := parallelism
	if workers > len(exps) {
		workers = len(exps)
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= len(exps) {
					return
				}
				out[i] = RunOne(ctx, exps[i], scale)
			}
		}()
	}
	wg.Wait()
	return out
}

// RunOne executes a single experiment while holding one harness token,
// containing any panic (including ledger budget trips and cooperative
// cancellation) into a structured RunResult: the CLIs rely on a failed
// experiment never taking the caller down. The caller is responsible
// for the default cycle budget (RunAll arms the watchdog).
func RunOne(ctx context.Context, e Experiment, scale Scale) (r RunResult) {
	if ctx == nil {
		ctx = context.Background()
	}
	r.Experiment = e
	release := workpool.Acquire()
	defer release()
	start := time.Now() //mmutricks:nondet-ok Wall feeds the bench JSON only, never the report bytes
	cyc := clock.MeterNow()
	defer func() {
		r.Wall = time.Since(start) //mmutricks:nondet-ok Wall feeds the bench JSON only, never the report bytes
		r.SimCycles = clock.MeterNow() - cyc
		if p := recover(); p != nil {
			reason := FailureReason(p)
			r.Err = fmt.Errorf("experiment %s %s: %v\n%s", e.ID, reason, p, debug.Stack())
			r.FailReason = reason
			r.Table = failedTable(e, reason)
		}
	}()
	if err := ctx.Err(); err != nil {
		// Already cancelled: don't start the experiment at all. Raise
		// the same sentinel a mid-run cancellation produces so the
		// deferred containment renders the placeholder.
		panic(&workpool.Canceled{Cause: context.Cause(ctx)})
	}
	r.Table = e.Run(ctx, scale)
	return r
}

// FailureReason classifies a contained panic for the FAILED cell and
// the exit-code/retry policies built on top: "cycle-budget" for ledger
// watchdog trips, "timeout"/"canceled" for cooperative cancellation,
// and "panic" for everything else. Budget trips and cancellations
// arrive either as their sentinel values or — via a RowSet row
// goroutine — re-raised as formatted strings, so the fixed phrases in
// clock.BudgetError.Error and workpool.Canceled.Error are matched, not
// the types.
func FailureReason(p any) string {
	if canceled, timeout := workpool.IsCanceled(p); canceled {
		if timeout {
			return "timeout"
		}
		return "canceled"
	}
	if strings.Contains(fmt.Sprint(p), "cycle budget exceeded") {
		return "cycle-budget"
	}
	return "panic"
}

// failedTable is the placeholder a panicking experiment renders as: a
// one-cell grid so -all output keeps every registry entry, with the
// full panic carried separately in RunResult.Err.
func failedTable(e Experiment, reason string) *Table {
	return &Table{
		ID: e.ID, Title: e.Title,
		Headers: []string{"result"},
		Rows:    [][]string{{fmt.Sprintf("FAILED(%s)", reason)}},
		Notes:   []string{"the runner contained a failure in this experiment; the panic and stack are in the run's error output"},
	}
}
