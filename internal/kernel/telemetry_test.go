package kernel

import (
	"strings"
	"testing"

	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
	"mmutricks/internal/clock"
	"mmutricks/internal/faultinject"
	"mmutricks/internal/machine"
	"mmutricks/internal/telemetry"
)

// mixedWorkload drives every phase the kernel can enter without a
// fault injector: syscalls, reloads, faults, switches, flushes, idle
// (with reclaim and pre-zeroing), and enough memory pressure to swap.
func mixedWorkload(k *Kernel) {
	other := k.Fork()
	for i := 0; i < 10; i++ {
		k.SysNull()
	}
	a := k.SysMmap(64)
	k.UserTouchPages(a, 64)
	k.Switch(other)
	k.Switch(k.tasks[1])
	k.RunIdleFor(30_000)
	k.SysMunmap(a, 64)
	// Enough anonymous memory to run the frame allocator dry: the
	// faults beyond free memory reclaim via swapOut, and re-touching
	// the early pages swaps them back in.
	big := k.SysMmap(8000)
	k.UserTouchPages(big, 8000)
	k.UserTouchPages(big, 64)
	k.SysMunmap(big, 8000)
}

// TestConservationCorruptionTable proves CheckConsistency's invariant 7
// has single-cycle resolution: skewing any one phase's total by one
// cycle in either direction must trip it.
func TestConservationCorruptionTable(t *testing.T) {
	for _, ph := range telemetry.AllPhases {
		for _, d := range []int64{-1, 1} {
			k, _ := bootTask(t, clock.PPC604At185(), Optimized())
			p := k.M.Trc.Phases()
			p.Enable(telemetry.Options{})
			mixedWorkload(k)
			if err := k.CheckConsistency(); err != nil {
				t.Fatalf("clean run inconsistent: %v", err)
			}
			p.Skew(ph, d)
			if err := k.CheckConsistency(); err == nil {
				t.Errorf("phase %v skewed by %+d cycles not caught", ph, d)
			}
			p.Skew(ph, -d) // restore for the deferred checks
		}
	}
}

// TestTelemetryNeutrality proves an enabled phase ledger changes
// nothing observable: cycles and every hardware counter are identical
// to the uninstrumented run.
func TestTelemetryNeutrality(t *testing.T) {
	run := func(enable bool) (clock.Cycles, string) {
		k, _ := bootTask(t, clock.PPC604At185(), Optimized())
		if enable {
			k.M.Trc.Phases().Enable(telemetry.Options{SampleInterval: 4096, SampleCapacity: 64})
		}
		mixedWorkload(k)
		return k.M.Led.Now(), k.M.Mon.String()
	}
	offCycles, offMon := run(false)
	onCycles, onMon := run(true)
	if offCycles != onCycles {
		t.Errorf("telemetry changed the clock: %d cycles off, %d on", offCycles, onCycles)
	}
	if offMon != onMon {
		t.Errorf("telemetry changed the counters:\noff:\n%s\non:\n%s", offMon, onMon)
	}
}

// copyWorkload is mixedWorkload with copies added: a pipe round trip
// and a user copy whose two streams sit at different line offsets in
// their pages, so they share cache sets and the pair run's leg order
// matters, and, after mixedWorkload's fork, a store to every page of
// the buffer, which breaks copy-on-write under COWFork while the child
// still shares the frames. It returns the bytes written to the pipe.
func copyWorkload(k *Kernel) (piped int) {
	buf := k.SysMmap(8)
	k.UserRefRun(buf, 8, arch.PageSize, true)
	p := k.SysPipe()
	for i := 0; i < 4; i++ {
		piped += k.SysPipeWrite(p, buf+arch.EffectiveAddr(i*0x340), 3000)
		k.SysPipeRead(p, buf+4*arch.PageSize+arch.EffectiveAddr(i*0x1a0), 3000)
	}
	k.UserCopy(buf+2*arch.PageSize+0x200, buf+0x40, 6000)
	mixedWorkload(k)
	k.UserRefRun(buf, 8, arch.PageSize, true)
	return piped
}

// TestTracerNeutrality proves an enabled tracer changes nothing
// observable: with events recorded, every run takes the scalar loop,
// and the cycles, every hardware counter, and both caches' statistics
// and dirty lines equal the untraced run's, whose runs batch. The
// untraced run must reach the batched fetch run, the pair run and the
// locked-cache route, each checked through the traffic only it
// carries there.
func TestTracerNeutrality(t *testing.T) {
	locked := Optimized()
	locked.IdleCacheLock = true
	locked.COWFork = true
	locked.IdleClear = IdleClearCached // cached idle clears run under the lock
	type obs struct {
		now            clock.Cycles
		mon            string
		istats, dstats cache.Stats
		idirty, ddirty int
	}
	for _, tc := range []struct {
		model clock.CPUModel
		cfg   Config
	}{
		{clock.PPC604At185(), Optimized()},
		{clock.PPC603At180(), locked},
	} {
		run := func(traced bool) obs {
			k, _ := bootTask(t, tc.model, tc.cfg)
			if traced {
				k.M.Trc.Enable()
			}
			piped := copyWorkload(k)
			if !traced {
				// No injector is attached, so every kernel-text
				// fetch is a FetchRun, and a pipe write from a cached
				// user page is a MemPairRun.
				if k.M.ICache.Stats().Accesses[cache.ClassKernelText] == 0 {
					t.Errorf("%s: no kernel-text fetch: FetchRun untested", tc.model.Name)
				}
				if piped == 0 {
					t.Errorf("%s: nothing piped: MemPairRun untested", tc.model.Name)
				}
				if tc.cfg.IdleCacheLock && k.M.DCache.Stats().Accesses[cache.ClassIdle] == 0 {
					t.Errorf("%s: no cached idle clear: the locked route untested", tc.model.Name)
				}
			} else if len(k.M.Trc.Events()) == 0 {
				t.Errorf("%s: the tracer recorded nothing", tc.model.Name)
			}
			return obs{
				now:    k.M.Led.Now(),
				mon:    k.M.Mon.String(),
				istats: *k.M.ICache.Stats(),
				dstats: *k.M.DCache.Stats(),
				idirty: k.M.ICache.DirtyLines(),
				ddirty: k.M.DCache.DirtyLines(),
			}
		}
		off, on := run(false), run(true)
		if off.now != on.now {
			t.Errorf("%s: the tracer changed the clock: %d cycles off, %d on", tc.model.Name, off.now, on.now)
		}
		if off.mon != on.mon {
			t.Errorf("%s: the tracer changed the counters:\noff:\n%s\non:\n%s", tc.model.Name, off.mon, on.mon)
		}
		if off.istats != on.istats || off.dstats != on.dstats {
			t.Errorf("%s: the tracer changed the cache statistics:\noff I %+v\non  I %+v\noff D %+v\non  D %+v",
				tc.model.Name, off.istats, on.istats, off.dstats, on.dstats)
		}
		if off.idirty != on.idirty || off.ddirty != on.ddirty {
			t.Errorf("%s: the tracer changed the dirty lines: I %d off, %d on; D %d off, %d on",
				tc.model.Name, off.idirty, on.idirty, off.ddirty, on.ddirty)
		}
	}
}

// TestReconcilePhaseEntries checks the phase-entry/hwmon identities on
// a real workload: every phase entry point sits next to exactly one
// counter increment.
func TestReconcilePhaseEntries(t *testing.T) {
	for _, model := range []clock.CPUModel{clock.PPC603At180(), clock.PPC604At185()} {
		cfg := Optimized()
		cfg.IdleClear = IdleClearUncachedList
		k, _ := bootTask(t, model, cfg)
		before := *k.M.Mon
		p := k.M.Trc.Phases()
		p.Enable(telemetry.Options{})
		mixedWorkload(k)
		p.Sync()
		delta := k.M.Mon.Delta(before)
		for _, row := range telemetry.Reconcile(p, &delta) {
			if !row.OK {
				t.Errorf("%s/%d: %s: %d phase entries vs %d counter events",
					model.Name, model.MHz, row.Name, row.Enters, row.Counter)
			}
		}
		if p.Enters(telemetry.PhaseSwap) == 0 {
			t.Errorf("%s: workload never swapped — reconcile rows untested", model.Name)
		}
		if p.Enters(telemetry.PhasePreZero) == 0 {
			t.Errorf("%s: workload never pre-zeroed", model.Name)
		}
		if err := k.CheckConsistency(); err != nil {
			t.Errorf("%s: %v", model.Name, err)
		}
	}
}

// TestPhasesSurviveRecoveredPanic follows the chaos soak's recovery
// path with phases on: a workload panics two spans deep (a segfault in
// the page-fault span, inside the hash-miss handler's tlb-miss span),
// the harness recovers it, disarms the injector and drains the pending
// machine checks on the same kernel. The deferred exits must have
// unwound both spans: conservation holds, the next cycles are user
// time, and the next span enters and leaves cleanly.
func TestPhasesSurviveRecoveredPanic(t *testing.T) {
	sched := faultinject.DefaultSchedule(7)
	sched.RatePPM = 20000
	sched.Weights[faultinject.PTEFlip] = 0 // keep the task alive
	inj := faultinject.New(sched)
	k := New(machine.NewWithOptions(clock.PPC604At185(), machine.Options{Injector: inj}), Optimized())
	k.Spawn(k.LoadImage("test", 8))
	ph := k.M.Trc.Phases()
	ph.Enable(telemetry.Options{SampleInterval: 4096})

	recovered := func() (r any) {
		defer func() { r = recover() }()
		inj.Arm()
		k.UserTouchPages(UserDataBase, 64)
		k.UserTouch(0x2000_0000, 4) // outside every region
		return nil
	}()
	if msg, _ := recovered.(string); !strings.Contains(msg, "segfault") {
		t.Fatalf("recovered %v, want the wild store's segfault", recovered)
	}
	inj.Disarm()
	k.DrainMachineChecks()
	if k.M.Mon.MachineChecks == 0 {
		t.Fatal("no machine check delivered: the injector never fired")
	}
	if ph.Enters(telemetry.PhaseFault) == 0 || ph.Enters(telemetry.PhaseTLBMiss) == 0 {
		t.Fatal("the panic was not taken inside the fault spans")
	}

	userOnly := func(when string) {
		t.Helper()
		if err := ph.CheckConservation(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		user := ph.Cycles(telemetry.PhaseUser)
		k.M.Led.Charge(100)
		ph.Sync()
		if got := ph.Cycles(telemetry.PhaseUser) - user; got != 100 {
			t.Fatalf("%s: %d of 100 cycles went to user time; a span is still open", when, got)
		}
	}
	userOnly("after the recovered panic")
	syscalls := ph.Enters(telemetry.PhaseSyscall)
	k.SysNull()
	if got := ph.Enters(telemetry.PhaseSyscall) - syscalls; got != 1 {
		t.Fatalf("the next syscall entered its phase %d times, want 1", got)
	}
	userOnly("after the next span")
	if err := k.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
