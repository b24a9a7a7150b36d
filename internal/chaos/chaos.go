// Package chaos is the soak harness behind `mmu chaos`: it runs the
// standard workloads (lmbench, kbuild, stress) plus an escalation
// workload under a declarative fault schedule, then audits that every
// injected fault was detected and either repaired or deliberately
// escalated.
//
// The audits are exact identities, not statistical claims:
//
//	applied[tlb-flip]                          == MCRepairsTLB
//	applied[htab-flip] + applied[htab-resurrect] == MCRepairsHTAB
//	applied[bat-flip]                          == MCRepairsBAT
//	applied[cache-flip]                        == MCRepairsCache
//	applied[pte-flip]                          == MCEscalations
//	applied[spurious-mc]                       == MCSpurious
//	sum of the above                           == MachineChecks
//
// plus a clean post-run CheckConsistency and a fully-reconciled trace.
// Each section runs on its own machine with its own Injector seeded by
// DeriveSeed(seed, section index), so the report is byte-identical for
// a given schedule at any harness parallelism.
package chaos

import (
	"context"
	"fmt"

	"mmutricks/internal/arch"
	"mmutricks/internal/clock"
	"mmutricks/internal/faultinject"
	"mmutricks/internal/kbuild"
	"mmutricks/internal/kernel"
	"mmutricks/internal/lmbench"
	"mmutricks/internal/machine"
	"mmutricks/internal/mmtrace"
	"mmutricks/internal/trace"
	"mmutricks/internal/workpool"
)

// FormatVersion is the report format version.
const FormatVersion = 1

// Options selects what to soak.
type Options struct {
	// Workload is "lmbench", "kbuild", "stress", "escalate", or "all".
	Workload string
	// CPU is the clock.ModelByName spec (e.g. "604/185").
	CPU string
	// Config is the kernel.Named configuration.
	Config string
	// Iters scales the workloads (see Sections).
	Iters int
	// Schedule is the faultinject schedule text. The embedded seed is
	// the run seed; each section derives its own stream from it.
	Schedule string
}

// KindCount is one fault kind's injection tally in a section.
type KindCount struct {
	Kind    string `json:"kind"`
	Applied uint64 `json:"applied"`
	Skipped uint64 `json:"skipped"`
}

// SectionResult is one workload section's soak outcome.
type SectionResult struct {
	Name     string `json:"name"`
	Seed     uint64 `json:"seed"`
	Schedule string `json:"schedule"`
	OK       bool   `json:"ok"`
	// Failures lists every audit that failed, in a fixed order; empty
	// for a passing section.
	Failures []string    `json:"failures,omitempty"`
	Injected []KindCount `json:"injected"`

	MachineChecks uint64 `json:"machine_checks"`
	RepairsTLB    uint64 `json:"repairs_tlb"`
	RepairsHTAB   uint64 `json:"repairs_htab"`
	RepairsBAT    uint64 `json:"repairs_bat"`
	RepairsCache  uint64 `json:"repairs_cache"`
	Escalations   uint64 `json:"escalations"`
	Spurious      uint64 `json:"spurious"`

	Consistent bool   `json:"consistent"`
	Cycles     uint64 `json:"cycles"`
}

// Report is the versioned mmuchaos output.
type Report struct {
	Tool     string          `json:"tool"`
	Version  int             `json:"version"`
	Workload string          `json:"workload"`
	CPU      string          `json:"cpu"`
	Config   string          `json:"config"`
	Iters    int             `json:"iters"`
	Schedule string          `json:"schedule"`
	OK       bool            `json:"ok"`
	Sections []SectionResult `json:"sections"`
}

// Section is one workload section: a named run on a freshly booted
// kernel. The chaos soak and the tracerec recorder run the same
// sections, so a soak and a recording of one workload drive the kernel
// identically.
type Section struct {
	Name string
	// Escalate marks the one section whose schedule keeps pte-flip:
	// page-table poison kills the victim task, so only the section
	// built around sacrificial tasks opts in.
	Escalate bool
	Run      func(k *kernel.Kernel)
}

// Run executes the soak and returns the report. An error means the
// harness itself could not run (bad options); audit failures are
// reported per section with Report.OK false. Cancelling ctx stops
// starting new sections (cooperative, section granularity); a
// cancelled run panics workpool.Canceled through RowSet, which the
// caller's containment (report.RunOne) classifies.
func Run(ctx context.Context, opts Options) (*Report, error) {
	model, ok := clock.ModelByName(opts.CPU)
	if !ok {
		return nil, fmt.Errorf("chaos: unknown cpu %q", opts.CPU)
	}
	cfg, ok := kernel.Named(opts.Config)
	if !ok {
		return nil, fmt.Errorf("chaos: unknown config %q", opts.Config)
	}
	base, err := faultinject.ParseSchedule(opts.Schedule)
	if err != nil {
		return nil, fmt.Errorf("chaos: schedule: %v", err)
	}
	if opts.Iters <= 0 {
		opts.Iters = 100
	}
	runs, err := Sections(opts.Workload, opts.Iters)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Tool:     "mmuchaos",
		Version:  FormatVersion,
		Workload: opts.Workload,
		CPU:      model.Name,
		Config:   opts.Config,
		Iters:    opts.Iters,
		Schedule: base.String(),
		OK:       true,
		Sections: make([]SectionResult, len(runs)),
	}
	workpool.RowSet(ctx, len(runs), func(i int) {
		rep.Sections[i] = runSection(model, cfg, base, uint64(i), runs[i])
	})
	for i := range rep.Sections {
		if !rep.Sections[i].OK {
			rep.OK = false
		}
	}
	return rep, nil
}

// runSection soaks one workload section on a fresh machine.
func runSection(model clock.CPUModel, cfg kernel.Config, base faultinject.Schedule, salt uint64, sr Section) SectionResult {
	sched := base
	sched.Seed = faultinject.DeriveSeed(base.Seed, salt)
	if !sr.Escalate {
		// Page-table poison is unrepairable and kills its victim; only
		// the escalation section sacrifices tasks on purpose.
		sched.Weights[faultinject.PTEFlip] = 0
	}
	inj := faultinject.New(sched)
	m := machine.NewWithOptions(model, machine.Options{Injector: inj})
	m.Trc.Enable()
	before := m.Mon.Snapshot()
	k := kernel.New(m, cfg)

	res := SectionResult{Name: sr.Name, Seed: sched.Seed, Schedule: sched.String()}
	fail := func(format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}

	func() {
		defer func() {
			if r := recover(); r != nil {
				fail("workload panic: %v", r)
			}
		}()
		inj.Arm()
		sr.Run(k)
	}()
	inj.Disarm()
	// Deliver stragglers whose corrupting access never reached another
	// kernel-level tick (e.g. a trailing physical access).
	func() {
		defer func() {
			if r := recover(); r != nil {
				fail("machine-check drain panic: %v", r)
			}
		}()
		k.DrainMachineChecks()
	}()

	applied, skipped := inj.Applied(), inj.Skipped()
	for kind := faultinject.Kind(0); kind < faultinject.NumKinds; kind++ {
		res.Injected = append(res.Injected, KindCount{
			Kind:    kind.String(),
			Applied: applied[kind],
			Skipped: skipped[kind],
		})
	}
	d := m.Mon.Delta(before)
	res.MachineChecks = d.MachineChecks
	res.RepairsTLB = d.MCRepairsTLB
	res.RepairsHTAB = d.MCRepairsHTAB
	res.RepairsBAT = d.MCRepairsBAT
	res.RepairsCache = d.MCRepairsCache
	res.Escalations = d.MCEscalations
	res.Spurious = d.MCSpurious
	res.Cycles = uint64(m.Led.Now())

	// The exact detect-and-repair identities.
	idents := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"repairs_tlb", d.MCRepairsTLB, applied[faultinject.TLBFlip]},
		{"repairs_htab", d.MCRepairsHTAB, applied[faultinject.HTABFlip] + applied[faultinject.HTABResurrect]},
		{"repairs_bat", d.MCRepairsBAT, applied[faultinject.BATFlip]},
		{"repairs_cache", d.MCRepairsCache, applied[faultinject.CacheFlip]},
		{"escalations", d.MCEscalations, applied[faultinject.PTEFlip]},
		{"spurious", d.MCSpurious, applied[faultinject.SpuriousMC]},
	}
	var raised uint64
	for _, id := range idents {
		if id.got != id.want {
			fail("identity %s: counter %d != applied %d", id.name, id.got, id.want)
		}
		raised += id.want
	}
	if d.MachineChecks != raised {
		fail("identity machine_checks: %d != %d (sum of MC-raising applied faults)", d.MachineChecks, raised)
	}

	if err := k.CheckConsistency(); err != nil {
		fail("post-run consistency: %v", err)
	} else {
		res.Consistent = true
	}
	for _, row := range mmtrace.Reconcile(m.Trc.Hists(), &d) {
		if !row.OK {
			fail("reconcile %s: trace %d != counter %d", row.Name, row.TraceTotal, row.Counter)
		}
	}
	res.OK = len(res.Failures) == 0
	return res
}

// Sections builds the section list of a workload: "lmbench", "kbuild",
// "stress", "escalate", or "all" (every section, in that order). iters
// scales it: lmbench iterations, kbuild units x10, stress references
// x100.
func Sections(workload string, iters int) ([]Section, error) {
	lm := func() []Section {
		return []Section{
			{Name: "nullsys", Run: func(k *kernel.Kernel) { lmbench.New(k).NullSyscall(iters) }},
			{Name: "ctxsw", Run: func(k *kernel.Kernel) { lmbench.New(k).CtxSwitch(2, 0, max(2, iters/2)) }},
			{Name: "pipelat", Run: func(k *kernel.Kernel) { lmbench.New(k).PipeLatency(max(2, iters/2)) }},
			{Name: "mmaplat", Run: func(k *kernel.Kernel) { lmbench.New(k).MmapLatency(1024, max(2, iters/10)) }},
			{Name: "pstart", Run: func(k *kernel.Kernel) { lmbench.New(k).ProcStart(max(2, iters/10)) }},
		}
	}
	kb := func() []Section {
		kcfg := kbuild.Default()
		kcfg.Units = max(2, iters/10)
		return []Section{{Name: "kbuild", Run: func(k *kernel.Kernel) { kbuild.Run(k, kcfg) }}}
	}
	st := func() []Section {
		pages := 512
		refs := max(100, iters) * 100
		gen := func(name string, mk func(base arch.EffectiveAddr) trace.Generator) Section {
			return Section{Name: name, Run: func(k *kernel.Kernel) {
				img := k.LoadImage("stress", 2)
				t := k.Spawn(img)
				k.Switch(t)
				base := k.SysMmap(pages)
				g := mk(base)
				for i := 0; i < refs; i++ {
					k.UserRef(g.Next(), i%4 == 0)
				}
			}}
		}
		return []Section{
			gen("sequential", func(b arch.EffectiveAddr) trace.Generator { return trace.NewSequential(b, pages) }),
			gen("strided", func(b arch.EffectiveAddr) trace.Generator { return trace.NewStrided(b, pages, 17) }),
			gen("workingset", func(b arch.EffectiveAddr) trace.Generator { return trace.NewWorkingSet(b, pages, 32, 90, 1) }),
			gen("pointer-chase", func(b arch.EffectiveAddr) trace.Generator { return trace.NewPointerChase(b, pages, 1) }),
			gen("zipfian", func(b arch.EffectiveAddr) trace.Generator { return trace.NewZipfian(b, pages, 1) }),
		}
	}
	esc := func() []Section {
		return []Section{{Name: "escalate", Escalate: true, Run: escalateRun(iters)}}
	}
	switch workload {
	case "lmbench":
		return lm(), nil
	case "kbuild":
		return kb(), nil
	case "stress":
		return st(), nil
	case "escalate":
		return esc(), nil
	case "all":
		var all []Section
		all = append(all, lm()...)
		all = append(all, kb()...)
		all = append(all, st()...)
		all = append(all, esc()...)
		return all, nil
	}
	return nil, fmt.Errorf("chaos: unknown workload %q (want lmbench, kbuild, stress, escalate, or all)", workload)
}

// escalateRun is the sacrificial-task workload for page-table ECC
// faults: a runner task (always current, so never a victim) keeps a
// population of forked children with mapped pages; poison lands in a
// child's page table, the machine check kills it, and the runner reaps
// and replaces it.
func escalateRun(iters int) func(k *kernel.Kernel) {
	return func(k *kernel.Kernel) {
		img := k.LoadImage("chaos-escalate", 4)
		runner := k.Spawn(img)
		k.Switch(runner)
		k.UserTouchPages(kernel.UserDataBase, 16)
		var children []*kernel.Task
		replenish := func() {
			live := children[:0]
			for _, c := range children {
				if c.State == kernel.TaskZombie {
					k.Wait(c)
					continue
				}
				live = append(live, c)
			}
			children = live
			for len(children) < 4 {
				children = append(children, k.Fork())
			}
		}
		rounds := max(4, iters/4)
		for i := 0; i < rounds; i++ {
			replenish()
			addr := k.SysMmap(4)
			k.UserTouchPages(addr, 4)
			k.SysMunmap(addr, 4)
			k.UserRun(i%4, 200)
		}
		replenish()
	}
}
