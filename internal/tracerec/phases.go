package tracerec

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"mmutricks/internal/hwmon"
	"mmutricks/internal/telemetry"
)

// This file holds the phase views: renderers over the telemetry half
// of a recording (phase totals, interval samples, attribution). Like
// every analysis in the package, output is a pure function of the
// recording bytes, so anything recorded at -j N renders identically at
// any parallelism.

// counterAt reads one named counter out of a sample's value array.
func counterAt(td *TelemetryData, s SampleData, name string) uint64 {
	if i := slices.Index(td.CounterNames, name); i >= 0 && i < len(s.Counters) {
		return s.Counters[i]
	}
	return 0
}

// endCounter reads one named counter out of a section's end-of-window
// delta (the hwmon.Counters struct serialized with the section).
func endCounter(s *Section, name string) uint64 {
	if i := slices.Index(hwmon.CounterNames(), name); i >= 0 {
		return s.Counters.Values()[i]
	}
	return 0
}

// writePhases writes one section's phase profile: the phase table
// with cycle shares and entry counts, derived rates against the
// section's counter delta, and per-task/per-mm attribution.
func writePhases(w io.Writer, s *Section) {
	td := s.Telemetry
	total := sumU64(td.PhaseCycles)
	fmt.Fprintf(w, "\n== section %s: %d cycles attributed, %d samples (%d dropped) ==\n",
		s.Name, total, len(td.Samples), td.Dropped)

	fmt.Fprintf(w, "%-14s %14s %7s %10s\n", "phase", "cycles", "%", "enters")
	for i, name := range td.PhaseNames {
		fmt.Fprintf(w, "%-14s %14d %6.2f%% %10d\n",
			name, td.PhaseCycles[i], pctOf(td.PhaseCycles[i], total), td.PhaseEnters[i])
	}

	writeDerivedRates(w, s, td, total)
	writeAttribution(w, "per-task cycles", td.Tasks, total)
	writeAttribution(w, "per-mm cycles", td.MMs, total)
}

// writeDerivedRates prints the rates the raw tables bury: event
// frequency per million cycles and mean cycles per event, phase
// cycles divided by the matching counter.
func writeDerivedRates(w io.Writer, s *Section, td *TelemetryData, total uint64) {
	if total == 0 {
		return
	}
	mcycles := float64(total) / 1e6
	faults := endCounter(s, "MinorFaults") + endCounter(s, "MajorFaults")
	misses := endCounter(s, "TLBMisses")
	ctxsw := endCounter(s, "CtxSwitches")
	fmt.Fprintf(w, "derived rates:\n")
	fmt.Fprintf(w, "  faults / Mcycle          %12.2f\n", float64(faults)/mcycles)
	fmt.Fprintf(w, "  tlb misses / Mcycle      %12.2f\n", float64(misses)/mcycles)
	if i := slices.Index(td.PhaseNames, "tlb-miss"); i >= 0 && misses > 0 {
		fmt.Fprintf(w, "  miss cycles / miss       %12.2f\n", float64(td.PhaseCycles[i])/float64(misses))
	}
	if i := slices.Index(td.PhaseNames, "flush"); i >= 0 && ctxsw > 0 {
		fmt.Fprintf(w, "  flush cycles / ctxsw     %12.2f\n", float64(td.PhaseCycles[i])/float64(ctxsw))
	}
	if i := slices.Index(td.PhaseNames, "syscall"); i >= 0 {
		if n := endCounter(s, "Syscalls"); n > 0 {
			fmt.Fprintf(w, "  syscall cycles / syscall %12.2f\n", float64(td.PhaseCycles[i])/float64(n))
		}
	}
}

func writeAttribution(w io.Writer, title string, rows []AttrData, total uint64) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "%s: ", title)
	for i, row := range rows {
		if i > 0 {
			fmt.Fprintf(w, ", ")
		}
		fmt.Fprintf(w, "%d: %d (%.1f%%)", row.ID, row.Cycles, pctOf(row.Cycles, total))
	}
	fmt.Fprintln(w)
}

// Timeline writes the interval timeline of a recording: one line per
// sample with the interval's dominant phase, its share, and the fault
// pressure, differenced from the previous sample.
func Timeline(w io.Writer, r *Recording) {
	fmt.Fprintf(w, "mmutrace timeline: workload=%s cpu=%s config=%s\n",
		r.Meta.Workload, r.Meta.CPU, r.Meta.Config)
	for si := range r.Sections {
		s := &r.Sections[si]
		td := s.Telemetry
		fmt.Fprintf(w, "\n== section %s: interval %d cycles, %d samples (%d dropped) ==\n",
			s.Name, td.Interval, len(td.Samples), td.Dropped)
		if len(td.Samples) == 0 {
			continue
		}
		fmt.Fprintf(w, "%4s %14s %5s %4s  %-14s %7s %7s  %s\n",
			"#", "cycle", "task", "mm", "dominant", "share", "faults", "")
		prevPhases := make([]uint64, len(td.PhaseNames))
		var prevFaults uint64
		for i, smp := range td.Samples {
			var dTotal, dMax uint64
			dom := 0
			for p := range td.PhaseNames {
				var c uint64
				if p < len(smp.Phases) {
					c = smp.Phases[p]
				}
				d := c - prevPhases[p]
				dTotal += d
				if d > dMax {
					dMax, dom = d, p
				}
				prevPhases[p] = c
			}
			faults := counterAt(td, smp, "MinorFaults") + counterAt(td, smp, "MajorFaults")
			dFaults := faults - prevFaults
			prevFaults = faults
			share := pctOf(dMax, dTotal)
			fmt.Fprintf(w, "%4d %14d %5d %4d  %-14s %6.1f%% %7d  %s\n",
				i, smp.Cycle, smp.Task, smp.MM, td.PhaseNames[dom], share, dFaults,
				bar(share, 24))
		}
	}
}

// writePhaseDiff compares two recordings phase by phase: aggregate
// cycles and entry counts across all sections, with the change.
func writePhaseDiff(w io.Writer, a, b *Recording) {
	names, ca, ea := aggPhases(a)
	namesB, cb, eb := aggPhases(b)
	if len(namesB) > len(names) {
		names = namesB
	}
	fmt.Fprintf(w, "%-14s %14s %14s %8s   %10s %10s\n",
		"phase", "cycles A", "cycles B", "Δ%", "enters A", "enters B")
	for i, name := range names {
		va, vb := at(ca, i), at(cb, i)
		fmt.Fprintf(w, "%-14s %14d %14d %8s   %10d %10d\n",
			name, va, vb, deltaPct(va, vb), at(ea, i), at(eb, i))
	}
}

// aggPhases sums phase cycles and enters across a recording's
// sections.
func aggPhases(r *Recording) (names []string, cycles, enters []uint64) {
	for si := range r.Sections {
		td := r.Sections[si].Telemetry
		if len(td.PhaseNames) > len(names) {
			names = td.PhaseNames
			cycles = append(cycles, make([]uint64, len(names)-len(cycles))...)
			enters = append(enters, make([]uint64, len(names)-len(enters))...)
		}
		for i := range td.PhaseCycles {
			cycles[i] += td.PhaseCycles[i]
			enters[i] += td.PhaseEnters[i]
		}
	}
	return names, cycles, enters
}

// WriteProfile writes the recording's phase cycles, summed across
// sections, as a gzipped pprof profile (telemetry.WriteProfileData).
func (r *Recording) WriteProfile(w io.Writer) error {
	names, cycles, _ := aggPhases(r)
	return telemetry.WriteProfileData(w, names, cycles, r.Meta.MHz)
}

func at(v []uint64, i int) uint64 {
	if i < len(v) {
		return v[i]
	}
	return 0
}

func deltaPct(a, b uint64) string {
	if a == 0 {
		if b == 0 {
			return "0%"
		}
		return "new"
	}
	return fmt.Sprintf("%+.1f%%", 100*(float64(b)-float64(a))/float64(a))
}

func pctOf(part, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}

func sumU64(v []uint64) uint64 {
	var t uint64
	for _, x := range v {
		t += x
	}
	return t
}

func bar(pct float64, width int) string {
	n := int(pct * float64(width) / 100)
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}
