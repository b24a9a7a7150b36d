package kernel

import (
	"strings"
	"testing"

	"mmutricks/internal/arch"
	"mmutricks/internal/clock"
	"mmutricks/internal/telemetry"
)

func TestProfilerOffByDefault(t *testing.T) {
	k, _ := bootTask(t, clock.PPC604At185(), Optimized())
	if k.M.Trc.Phases().Enabled() {
		t.Fatal("phase ledger should be off until enabled")
	}
	k.SysNull() // must not crash with profiling off
}

func TestProfilerAttributesPaths(t *testing.T) {
	k, _ := bootTask(t, clock.PPC604At185(), Unoptimized())
	other := k.Fork()
	k.M.Trc.Phases().Enable(telemetry.Options{})

	for i := 0; i < 20; i++ {
		k.SysNull()
	}
	k.UserTouchPages(UserDataBase+0x100000, 32) // faults + reloads
	k.Switch(other)
	k.Switch(k.tasks[1])
	k.RunIdleFor(20_000)
	a := k.SysMmap(64)
	k.SysMunmap(a, 64) // eager flushing

	p := k.M.Trc.Phases()
	for _, ph := range []telemetry.Phase{telemetry.PhaseSyscall, telemetry.PhaseTLBMiss, telemetry.PhaseFault,
		telemetry.PhaseCtxSwitch, telemetry.PhaseIdle, telemetry.PhaseFlush} {
		if p.Cycles(ph) == 0 {
			t.Errorf("no cycles attributed to %v", ph)
		}
	}
	if p.Cycles(telemetry.PhaseUser) == 0 {
		t.Error("no user cycles")
	}
	// Fractions sum to ~1.
	var sum float64
	for _, ph := range telemetry.AllPhases {
		sum += p.Fraction(ph)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("fractions sum to %f", sum)
	}
	if !strings.Contains(p.String(), "tlb-miss") {
		t.Error("String() missing phase names")
	}
	if err := p.CheckConservation(); err != nil {
		t.Errorf("conservation after a mixed workload: %v", err)
	}
	if err := k.CheckConsistency(); err != nil {
		t.Errorf("consistency with profiling on: %v", err)
	}
}

func TestProfilerNesting(t *testing.T) {
	// A page fault taken inside a syscall's copy path must be charged
	// to the fault, not the syscall.
	k, _ := bootTask(t, clock.PPC604At185(), Optimized())
	p := k.SysPipe()
	k.M.Trc.Phases().Enable(telemetry.Options{})
	// The read lands in untouched user pages: the copy faults them in.
	k.SysPipeWrite(p, UserDataBase, 256)
	k.SysPipeRead(p, UserDataBase+0x3000000%0x100000+0x200000, 256)
	prof := k.M.Trc.Phases()
	if prof.Cycles(telemetry.PhaseFault) == 0 {
		t.Fatal("nested fault not attributed")
	}
	if prof.Cycles(telemetry.PhaseSyscall) == 0 {
		t.Fatal("syscall cycles missing")
	}
}

// TestProfilerShowsOptimizationShift is the methodology payoff: the
// unoptimized kernel spends a large share of a reload-heavy workload in
// miss handling; the optimized kernel collapses that share.
func TestProfilerShowsOptimizationShift(t *testing.T) {
	missShare := func(cfg Config) float64 {
		k, _ := bootTask(t, clock.PPC603At180(), cfg)
		addr := k.SysMmap(512)
		k.UserTouchPages(addr, 512)
		k.M.Trc.Phases().Enable(telemetry.Options{})
		for i := 0; i < 4; i++ {
			k.UserTouchPages(addr, 512)
			k.UserRun(0, 2000)
		}
		return k.M.Trc.Phases().Fraction(telemetry.PhaseTLBMiss)
	}
	unopt := missShare(Unoptimized())
	opt := missShare(Optimized())
	if unopt < 0.5 {
		t.Fatalf("unoptimized miss share only %.2f — workload not reload-bound", unopt)
	}
	if opt >= unopt-0.15 {
		t.Fatalf("optimized miss share %.2f should sit well below unoptimized %.2f", opt, unopt)
	}
	// The kernel-time-to-user-time ratio is the per-miss cost signal;
	// the fast handlers should cut it by at least 3x.
	ratio := func(share float64) float64 { return share / (1 - share) }
	if ratio(opt) >= ratio(unopt)/3 {
		t.Fatalf("per-miss cost ratio: opt %.2f vs unopt %.2f — want >=3x improvement",
			ratio(opt), ratio(unopt))
	}
	_ = arch.PageSize
}
