package report

import (
	"context"
	"fmt"

	"mmutricks/internal/clock"
	"mmutricks/internal/kbuild"
	"mmutricks/internal/kernel"
	"mmutricks/internal/machine"
	"mmutricks/internal/telemetry"
)

func init() {
	register(Experiment{ID: "telemetry-phases", Title: "mmustat phase breakdown of the compile workload", Run: runTelemetryPhases})
}

// ---------------------------------------------------------------------
// The telemetry subsystem as an experiment: run the compile workload
// with the phase ledger enabled on both CPUs and report where every
// simulated cycle went, with the conservation identity and the
// phase-entry/counter reconciliation checked on the way out. This is
// the report-side view of what `mmustat record` + `phases` produce as
// a CLI artifact.
// ---------------------------------------------------------------------

type phaseRun struct {
	cycles  [telemetry.NumPhases]uint64
	enters  [telemetry.NumPhases]uint64
	total   uint64
	okRows  int
	badRows int
	samples int
	dropped uint64
}

func runTelemetryPhases(ctx context.Context, s Scale) *Table {
	cfg := kbuild.Default()
	cfg.Units = s.pick(2, 8)
	cfg.WorkPages = 320
	cfg.Passes = 2
	cfg.StrayRefs = 8

	models := []clock.CPUModel{clock.PPC603At133(), clock.PPC604At185()}
	var res [2]phaseRun
	RowSet(ctx, 2, func(i int) {
		m := machine.New(models[i])
		ph := m.Trc.Phases()
		ph.Enable(telemetry.Options{SampleInterval: 1 << 18})
		before := m.Mon.Snapshot()
		k := kernel.New(m, kernel.Optimized())
		kbuild.Run(k, cfg)
		// mustConsistent includes the phase-cycle conservation sweep:
		// every cycle of the run is attributed to exactly one phase.
		mustConsistent(k)
		ph.Sync()
		delta := m.Mon.Delta(before)
		for _, p := range telemetry.AllPhases {
			res[i].cycles[p] = uint64(ph.Cycles(p))
			res[i].enters[p] = ph.Enters(p)
			res[i].total += uint64(ph.Cycles(p))
		}
		for _, r := range telemetry.Reconcile(ph, &delta) {
			if r.OK {
				res[i].okRows++
			} else {
				res[i].badRows++
			}
		}
		res[i].samples = len(ph.Samples())
		res[i].dropped = ph.Dropped()
	})
	r603, r604 := res[0], res[1]

	share := func(r phaseRun, ph telemetry.Phase) string {
		if r.total == 0 {
			return "-"
		}
		return pct(float64(r.cycles[ph]) / float64(r.total))
	}
	enters := func(r phaseRun, ph telemetry.Phase) string {
		if r.enters[ph] == 0 && r.cycles[ph] == 0 {
			return "-"
		}
		return fmt.Sprintf("%d", r.enters[ph])
	}

	var rows [][]string
	for _, ph := range telemetry.AllPhases {
		if r603.cycles[ph] == 0 && r604.cycles[ph] == 0 {
			continue
		}
		rows = append(rows, []string{
			ph.String(), share(r603, ph), enters(r603, ph), share(r604, ph), enters(r604, ph),
		})
	}

	reconLine := func(name string, r phaseRun) string {
		status := fmt.Sprintf("%d identities OK", r.okRows)
		if r.badRows > 0 {
			status = fmt.Sprintf("%d identities OK, %d MISMATCHED", r.okRows, r.badRows)
		}
		return fmt.Sprintf("%s: %d cycles attributed (conservation exact), phase-entry reconciliation %s; %d samples taken, %d dropped",
			name, r.total, status, r.samples, r.dropped)
	}

	return &Table{
		ID: "telemetry-phases", Title: "phase cycle shares, instrumented kernel compile (optimized kernels)",
		Headers: []string{"phase", "603/133 share", "enters", "604/185 share", "enters"},
		Rows:    rows,
		Paper: [][]string{
			{"(no table — the paper's process ran on exactly this view; §4: \"extensive use of quantitative measures and detailed analysis of low level system performance\")"},
		},
		Notes: []string{
			reconLine("603/133", r603),
			reconLine("604/185", r604),
			"conservation is machine-checked: CheckConsistency fails if attributed phase cycles drift from the clock by even one cycle",
			"the same data is available offline: mmustat record/timeline/phases (see EXPERIMENTS.md)",
		},
	}
}
