package tracerec

import (
	"context"
	"errors"
	"fmt"

	"mmutricks/internal/chaos"
	"mmutricks/internal/clock"
	"mmutricks/internal/kernel"
	"mmutricks/internal/machine"
	"mmutricks/internal/mmtrace"
	"mmutricks/internal/report"
	"mmutricks/internal/telemetry"
)

// RecordOptions selects what to record.
type RecordOptions struct {
	// Workload is "lmbench", "kbuild", or "stress".
	Workload string
	// CPU is the clock.ModelByName spec (e.g. "604/185").
	CPU string
	// Config is the kernel.Named configuration.
	Config string
	// Iters scales the workload (lmbench iteration count, kbuild
	// units x10, stress references x100).
	Iters int
	// Capacity overrides the trace ring size (0 = default).
	Capacity int
	// SampleInterval is the phase sampler's period in simulated cycles
	// (0 = telemetry.DefaultSampleInterval).
	SampleInterval int
}

// ErrUnknownWorkload is wrapped by the error Record returns for a
// workload it does not know, a mistake in its options rather than a
// failed run.
var ErrUnknownWorkload = errors.New("unknown workload")

// Record runs the selected workload with the event ring, the phase
// ledger and its interval sampler enabled and returns the capture.
// Sections run under report.RowSet, so -j (set via
// report.SetParallelism) parallelizes across sections while the
// result, assembled by index, stays byte-identical at any -j.
func Record(ctx context.Context, opts RecordOptions) (*Recording, error) {
	model, ok := clock.ModelByName(opts.CPU)
	if !ok {
		return nil, fmt.Errorf("tracerec: unknown cpu %q", opts.CPU)
	}
	cfg, ok := kernel.Named(opts.Config)
	if !ok {
		return nil, fmt.Errorf("tracerec: unknown config %q", opts.Config)
	}
	if opts.Iters <= 0 {
		opts.Iters = 100
	}
	interval := clock.Cycles(opts.SampleInterval)
	if interval == 0 {
		interval = telemetry.DefaultSampleInterval
	}

	// The soak's escalate section exists to absorb the fault
	// injector's page-table poison, and a recording arms no injector.
	switch opts.Workload {
	case "lmbench", "kbuild", "stress":
	default:
		return nil, fmt.Errorf("tracerec: %w %q (want lmbench, kbuild, or stress)", ErrUnknownWorkload, opts.Workload)
	}
	runs, err := chaos.Sections(opts.Workload, opts.Iters)
	if err != nil {
		return nil, err
	}

	rec := &Recording{
		Meta: Meta{
			Tool:     "mmutrace",
			Version:  FormatVersion,
			Workload: opts.Workload,
			CPU:      model.Name,
			Config:   opts.Config,
			MHz:      model.MHz,
			Capacity: capacityOf(opts.Capacity),
			Kinds:    KindNames(),
		},
		Sections: make([]Section, len(runs)),
	}
	errs := make([]error, len(runs))
	report.RowSet(ctx, len(runs), func(i int) {
		m := machine.NewWithOptions(model, machine.Options{TraceCapacity: opts.Capacity})
		// Enable before boot and snapshot at the same instant: the
		// section's counter delta then covers exactly the traced
		// window, so the histograms (and the phase-entry identities)
		// reconcile.
		m.Trc.Enable()
		m.Trc.Phases().Enable(telemetry.Options{SampleInterval: interval})
		before := m.Mon.Snapshot()
		k := kernel.New(m, cfg)
		runs[i].Run(k)
		if err := k.CheckConsistency(); err != nil {
			errs[i] = fmt.Errorf("tracerec: section %s: %w", runs[i].Name, err)
			return
		}
		rec.Sections[i] = SectionFrom(runs[i].Name, m.Trc, m.Mon.Delta(before))
		rec.Sections[i].Telemetry = TelemetryFrom(m.Trc.Phases())
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rec, nil
}

func capacityOf(c int) int {
	if c <= 0 {
		return mmtrace.DefaultCapacity
	}
	return c
}
