package tracerec

import (
	"context"
	"fmt"

	"mmutricks/internal/arch"
	"mmutricks/internal/clock"
	"mmutricks/internal/kbuild"
	"mmutricks/internal/kernel"
	"mmutricks/internal/lmbench"
	"mmutricks/internal/machine"
	"mmutricks/internal/mmtrace"
	"mmutricks/internal/report"
	"mmutricks/internal/telemetry"
	"mmutricks/internal/trace"
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
	// Telemetry enables the phase ledger and interval sampler for each
	// section (the mmustat recording mode).
	Telemetry bool
	// SampleInterval is the sampler period in simulated cycles
	// (0 = telemetry.DefaultSampleInterval); SampleCapacity is the
	// sample-ring size (0 = telemetry.DefaultSampleCapacity). Both are
	// ignored unless Telemetry is set.
	SampleInterval int
	SampleCapacity int
}

// Record runs the selected workload with tracing enabled and returns
// the capture. Sections run under report.RowSet, so -j (set via
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

	type sectionRun struct {
		name string
		run  func(k *kernel.Kernel)
	}
	var runs []sectionRun
	switch opts.Workload {
	case "lmbench":
		iters := opts.Iters
		runs = []sectionRun{
			{"nullsys", func(k *kernel.Kernel) { lmbench.New(k).NullSyscall(iters) }},
			{"ctxsw", func(k *kernel.Kernel) { lmbench.New(k).CtxSwitch(2, 0, maxInt(2, iters/2)) }},
			{"pipelat", func(k *kernel.Kernel) { lmbench.New(k).PipeLatency(maxInt(2, iters/2)) }},
			{"mmaplat", func(k *kernel.Kernel) { lmbench.New(k).MmapLatency(1024, maxInt(2, iters/10)) }},
			{"pstart", func(k *kernel.Kernel) { lmbench.New(k).ProcStart(maxInt(2, iters/10)) }},
		}
	case "kbuild":
		kcfg := kbuild.Default()
		kcfg.Units = maxInt(2, opts.Iters/10)
		runs = []sectionRun{
			{"kbuild", func(k *kernel.Kernel) { kbuild.Run(k, kcfg) }},
		}
	case "stress":
		pages := 512
		refs := maxInt(100, opts.Iters) * 100
		gen := func(mk func(base arch.EffectiveAddr) trace.Generator) func(k *kernel.Kernel) {
			return func(k *kernel.Kernel) {
				img := k.LoadImage("stress", 2)
				t := k.Spawn(img)
				k.Switch(t)
				base := k.SysMmap(pages)
				g := mk(base)
				for i := 0; i < refs; i++ {
					k.UserRef(g.Next(), i%4 == 0)
				}
			}
		}
		runs = []sectionRun{
			{"sequential", gen(func(b arch.EffectiveAddr) trace.Generator { return trace.NewSequential(b, pages) })},
			{"strided", gen(func(b arch.EffectiveAddr) trace.Generator { return trace.NewStrided(b, pages, 17) })},
			{"workingset", gen(func(b arch.EffectiveAddr) trace.Generator { return trace.NewWorkingSet(b, pages, 32, 90, 1) })},
			{"pointer-chase", gen(func(b arch.EffectiveAddr) trace.Generator { return trace.NewPointerChase(b, pages, 1) })},
			{"zipfian", gen(func(b arch.EffectiveAddr) trace.Generator { return trace.NewZipfian(b, pages, 1) })},
		}
	default:
		return nil, fmt.Errorf("tracerec: unknown workload %q (want lmbench, kbuild, or stress)", opts.Workload)
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
		if opts.Telemetry {
			iv := clock.Cycles(opts.SampleInterval)
			if iv == 0 {
				iv = telemetry.DefaultSampleInterval
			}
			m.Trc.Phases().Enable(telemetry.Options{SampleInterval: iv, SampleCapacity: opts.SampleCapacity})
		}
		before := m.Mon.Snapshot()
		k := kernel.New(m, cfg)
		runs[i].run(k)
		if err := k.CheckConsistency(); err != nil {
			errs[i] = fmt.Errorf("tracerec: section %s: %w", runs[i].name, err)
			return
		}
		rec.Sections[i] = SectionFrom(runs[i].name, m.Trc, m.Mon.Delta(before))
		if opts.Telemetry {
			rec.Sections[i].Telemetry = TelemetryFrom(m.Trc.Phases())
		}
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
