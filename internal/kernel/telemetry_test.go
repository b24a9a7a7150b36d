package kernel

import (
	"testing"

	"mmutricks/internal/clock"
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
			k.M.Ph.Enable(telemetry.Options{})
			mixedWorkload(k)
			if err := k.CheckConsistency(); err != nil {
				t.Fatalf("clean run inconsistent: %v", err)
			}
			k.M.Ph.Skew(ph, d)
			if err := k.CheckConsistency(); err == nil {
				t.Errorf("phase %v skewed by %+d cycles not caught", ph, d)
			}
			k.M.Ph.Skew(ph, -d) // restore for the deferred checks
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
			k.M.Ph.Enable(telemetry.Options{SampleInterval: 4096, SampleCapacity: 64})
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

// TestReconcilePhaseEntries checks the phase-entry/hwmon identities on
// a real workload: every phase entry point sits next to exactly one
// counter increment.
func TestReconcilePhaseEntries(t *testing.T) {
	for _, model := range []clock.CPUModel{clock.PPC603At180(), clock.PPC604At185()} {
		cfg := Optimized()
		cfg.IdleClear = IdleClearUncachedList
		k, _ := bootTask(t, model, cfg)
		before := *k.M.Mon
		k.M.Ph.Enable(telemetry.Options{})
		mixedWorkload(k)
		k.M.Ph.Sync()
		delta := k.M.Mon.Delta(before)
		for _, row := range telemetry.Reconcile(k.M.Ph, &delta) {
			if !row.OK {
				t.Errorf("%s/%d: %s: %d phase entries vs %d counter events",
					model.Name, model.MHz, row.Name, row.Enters, row.Counter)
			}
		}
		if k.M.Ph.Enters(telemetry.PhaseSwap) == 0 {
			t.Errorf("%s: workload never swapped — reconcile rows untested", model.Name)
		}
		if k.M.Ph.Enters(telemetry.PhasePreZero) == 0 {
			t.Errorf("%s: workload never pre-zeroed", model.Name)
		}
		if err := k.CheckConsistency(); err != nil {
			t.Errorf("%s: %v", model.Name, err)
		}
	}
}
