package tracerec

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"mmutricks/internal/mmtrace"
	"mmutricks/internal/telemetry"
)

// addressedKinds are the event classes whose EA names a virtual page a
// workload actually touched — the ones that make sense to rank pages
// by.
var addressedKinds = map[string]bool{
	"tlb-miss":    true,
	"soft-reload": true,
	"minor-fault": true,
	"major-fault": true,
	"flush-page":  true,
}

// Summarize writes the human-readable analysis of a recording:
// per-event-class cycle-cost histograms, the reconciliation of trace
// totals against the hwmon counters, per-task attribution, the top-N
// hottest pages, TLB-miss inter-arrival times, and then each section's
// phase profile. It returns how many reconciliation rows mismatched
// (0 = the trace accounts for every counted event).
func Summarize(w io.Writer, r *Recording, topN int) int {
	fmt.Fprintf(w, "mmutrace summary: workload=%s cpu=%s config=%s capacity=%d\n",
		r.Meta.Workload, r.Meta.CPU, r.Meta.Config, r.Meta.Capacity)

	mismatches := 0
	for _, s := range r.Sections {
		fmt.Fprintf(w, "\n== section %s: %d events emitted, %d dropped by the ring ==\n",
			s.Name, s.Emitted, s.Dropped)

		// Per-class histogram table. The percentile columns are log2
		// bucket upper bounds (shared helper with the telemetry
		// sampler), so they are exact to within one power of two.
		fmt.Fprintf(w, "%-20s %10s %14s %10s %8s %8s %8s\n",
			"event class", "count", "cycles", "mean", "p50<=", "p99<=", "p999<=")
		for _, name := range s.sortedHistNames() {
			h := s.Hists[name]
			ps := telemetry.Percentiles(h.Buckets[:], 0.50, 0.99, 0.999)
			fmt.Fprintf(w, "%-20s %10d %14d %10.1f %8d %8d %8d\n",
				name, h.Count, h.CostTotal, h.Mean(), ps[0], ps[1], ps[2])
			writeBuckets(w, &h)
		}

		// Reconciliation against the hwmon counter delta.
		rows := mmtrace.Reconcile(s.HistArray(), &s.Counters)
		bad := 0
		for _, row := range rows {
			if !row.OK {
				bad++
				fmt.Fprintf(w, "RECONCILE MISMATCH %-24s trace=%d counter=%d\n",
					row.Name, row.TraceTotal, row.Counter)
			}
		}
		if bad == 0 {
			fmt.Fprintf(w, "reconcile: %d rows OK (trace totals == counter deltas)\n", len(rows))
		}
		mismatches += bad

		if len(s.Tasks) > 1 {
			fmt.Fprintf(w, "per-task: ")
			for i, t := range s.Tasks {
				if i > 0 {
					fmt.Fprintf(w, ", ")
				}
				fmt.Fprintf(w, "pid %d: %d ev/%d cyc", t.PID, t.Events, t.CostTotal)
			}
			fmt.Fprintln(w)
		}
	}

	writeHotPages(w, r, topN)
	writeInterArrival(w, r)
	for si := range r.Sections {
		writePhases(w, &r.Sections[si])
	}
	return mismatches
}

// writeBuckets renders one histogram's nonzero log2 buckets with
// proportional bars.
func writeBuckets(w io.Writer, h *mmtrace.Hist) {
	var maxB uint64
	for _, b := range h.Buckets {
		if b > maxB {
			maxB = b
		}
	}
	if maxB == 0 {
		return
	}
	for i, b := range h.Buckets {
		if b == 0 {
			continue
		}
		bar := int(b * 40 / maxB)
		if bar == 0 {
			bar = 1
		}
		fmt.Fprintf(w, "    %12s cyc %10d %s\n", mmtrace.BucketLabel(i), b, strings.Repeat("#", bar))
	}
}

// pageOf parses an event's hex EA and returns its page number.
func pageOf(e Ev) (uint32, bool) {
	v, err := strconv.ParseUint(strings.TrimPrefix(e.EA, "0x"), 16, 32)
	if err != nil {
		return 0, false
	}
	return uint32(v >> 12), true
}

// writeHotPages ranks the pages behind the address-bearing events.
// Ranking uses the ring contents, so on an overflowed recording it
// reflects the trailing window (the histograms above stay complete).
func writeHotPages(w io.Writer, r *Recording, topN int) {
	if topN <= 0 {
		topN = 10
	}
	counts := map[uint32]uint64{}
	for _, s := range r.Sections {
		for _, e := range s.Events {
			if !addressedKinds[e.Kind] {
				continue
			}
			if pg, ok := pageOf(e); ok {
				counts[pg]++
			}
		}
	}
	if len(counts) == 0 {
		return
	}
	type pageCount struct {
		page uint32
		n    uint64
	}
	ranked := make([]pageCount, 0, len(counts))
	for pg, n := range counts { //mmutricks:nondet-ok collection order is erased by the count/page sort below
		ranked = append(ranked, pageCount{pg, n})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].n != ranked[j].n {
			return ranked[i].n > ranked[j].n
		}
		return ranked[i].page < ranked[j].page
	})
	if len(ranked) > topN {
		ranked = ranked[:topN]
	}
	fmt.Fprintf(w, "\n== top %d hottest pages (tlb-miss/reload/fault/flush events in the ring) ==\n", len(ranked))
	for _, pc := range ranked {
		fmt.Fprintf(w, "  page %#010x  %6d events\n", pc.page<<12, pc.n)
	}
}

// writeInterArrival prints the log2 distribution of cycles between
// consecutive TLB misses — the paper's miss-pressure signature.
func writeInterArrival(w io.Writer, r *Recording) {
	var buckets [mmtrace.HistBuckets]uint64
	var n uint64
	for _, s := range r.Sections {
		var last uint64
		have := false
		for _, e := range s.Events {
			if e.Kind != "tlb-miss" {
				continue
			}
			if have {
				gap := e.Time - last
				b := bits.Len64(gap)
				if b >= mmtrace.HistBuckets {
					b = mmtrace.HistBuckets - 1
				}
				buckets[b]++
				n++
			}
			last = e.Time
			have = true
		}
	}
	if n == 0 {
		return
	}
	fmt.Fprintf(w, "\n== tlb-miss inter-arrival (cycles between consecutive misses, %d gaps) ==\n", n)
	h := mmtrace.Hist{Buckets: buckets, Count: n}
	writeBuckets(w, &h)
}

// Diff compares two recordings class by class, then phase by phase:
// aggregate event counts and cycle totals, then phase cycles and entry
// counts, across all sections, with the change between them.
func Diff(w io.Writer, a, b *Recording) {
	fmt.Fprintf(w, "mmutrace diff: A=%s/%s/%s  B=%s/%s/%s\n",
		a.Meta.Workload, a.Meta.CPU, a.Meta.Config,
		b.Meta.Workload, b.Meta.CPU, b.Meta.Config)
	fmt.Fprintf(w, "%-20s %12s %12s %9s   %14s %14s\n",
		"event class", "count A", "count B", "Δcount", "cycles A", "cycles B")

	agg := func(r *Recording) map[string]mmtrace.Hist {
		out := map[string]mmtrace.Hist{}
		for _, s := range r.Sections {
			for name, h := range s.Hists { //mmutricks:nondet-ok sums are commutative and the printer walks KindNames order
				t := out[name]
				t.Count += h.Count
				t.CostTotal += h.CostTotal
				t.AuxTotal += h.AuxTotal
				out[name] = t
			}
		}
		return out
	}
	ha, hb := agg(a), agg(b)
	for _, name := range KindNames() {
		va, okA := ha[name]
		vb, okB := hb[name]
		if !okA && !okB {
			continue
		}
		fmt.Fprintf(w, "%-20s %12d %12d %+9d   %14d %14d\n",
			name, va.Count, vb.Count, int64(vb.Count)-int64(va.Count),
			va.CostTotal, vb.CostTotal)
	}
	fmt.Fprintln(w)
	writePhaseDiff(w, a, b)
}
