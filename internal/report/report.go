// Package report is the experiment harness: one registered experiment
// per table, figure and headline in-text result in the paper, each
// regenerating its numbers on the simulator and rendering them next to
// the values the paper reports.
package report

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
)

// Scale selects how long experiments run.
type Scale int

const (
	// Quick runs in seconds — used by tests and -quick.
	Quick Scale = iota
	// Full runs the sizes EXPERIMENTS.md records.
	Full
)

// pick returns q under Quick and f under Full.
func (s Scale) pick(q, f int) int {
	if s == Quick {
		return q
	}
	return f
}

// Table is one rendered experiment result.
type Table struct {
	ID    string
	Title string
	// Headers label the columns; Rows hold measured values, first cell
	// is the row label.
	Headers []string
	Rows    [][]string
	// Paper holds the values the paper reports in the same shape as
	// Rows (nil when the paper gives no directly comparable number).
	Paper [][]string
	// Notes carry shape conclusions and caveats.
	Notes []string
}

// Render formats the table (and the paper's values, when present) as
// aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n\n", t.ID, t.Title)
	b.WriteString(renderGrid(t.Headers, t.Rows, "measured"))
	if t.Paper != nil {
		b.WriteString("\n")
		b.WriteString(renderGrid(t.Headers, t.Paper, "paper"))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\nnote: %s\n", n)
	}
	return b.String()
}

// CounterChecksum fingerprints the rendered table: sha256, truncated
// to 16 hex digits (drift detection, not cryptography). Every count
// and every value derived from one shows up in the render, so a
// drifted simulated counter moves the checksum; BENCH_harness.json
// commits one per experiment.
func (t *Table) CounterChecksum() string {
	sum := sha256.Sum256([]byte(t.Render()))
	return hex.EncodeToString(sum[:8])
}

func renderGrid(headers []string, rows [][]string, tag string) string {
	var b strings.Builder
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	fmt.Fprintf(&b, "[%s]\n", tag)
	for i, h := range headers {
		fmt.Fprintf(&b, "%-*s  ", widths[i], h)
	}
	b.WriteString("\n")
	for i := range headers {
		fmt.Fprintf(&b, "%s  ", strings.Repeat("-", widths[i]))
	}
	b.WriteString("\n")
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Experiment is one registered reproduction. Run receives the
// harness's context so cooperative cancellation reaches row
// granularity: run functions pass it to RowSet, which stops starting
// rows once the context is done. Run functions that never fan out may
// ignore it.
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx context.Context, s Scale) *Table
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("report: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// All returns every experiment, sorted by ID.
func All() []Experiment {
	var es []Experiment
	for _, e := range registry { //mmutricks:nondet-ok collection order is erased by the sort on ID below
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool { return es[i].ID < es[j].ID })
	return es
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// formatting helpers shared by the experiment files.

func us(v float64) string {
	switch {
	case v >= 1000:
		return fmt.Sprintf("%.0f us", v)
	case v >= 10:
		return fmt.Sprintf("%.1f us", v)
	default:
		return fmt.Sprintf("%.2f us", v)
	}
}

func mbps(v float64) string { return fmt.Sprintf("%.1f MB/s", v) }

func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

func ratio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", a/b)
}
