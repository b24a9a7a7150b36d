package mmtrace

import "mmutricks/internal/hwmon"

// ReconcileRow compares one trace-derived total against the hwmon
// counter that should equal it.
type ReconcileRow struct {
	// Name labels the comparison (usually the event-kind name).
	Name string
	// TraceTotal is the total derived from the trace histograms.
	TraceTotal uint64
	// Counter is the hwmon.Counters value for the same window.
	Counter uint64
	// OK reports TraceTotal == Counter.
	OK bool
}

// Reconcile cross-checks the tracer's per-class histogram totals
// against a hwmon.Counters delta covering the same window. Every row
// must hold when tracing was enabled for the whole window: histograms
// count every recorded event (ring overflow only drops raw events),
// and each typed event call bumps its counters and records its event
// together. A mismatch therefore means the trace window and the
// counter window do not cover the same span, or one of the two
// cross-site identities broke: hashmiss-fault (every hash miss the
// 604 raised was handled) and mc-outcomes (every machine check had
// exactly one outcome).
func Reconcile(h *[NumKinds]Hist, c *hwmon.Counters) []ReconcileRow {
	row := func(name string, trace, counter uint64) ReconcileRow {
		return ReconcileRow{Name: name, TraceTotal: trace, Counter: counter, OK: trace == counter}
	}
	n := func(k Kind) uint64 { return h[k].Count }
	return []ReconcileRow{
		row("tlb-miss", n(KindTLBMiss), c.TLBMisses),
		row("htab-hit-primary", n(KindHTABHitPrimary), c.HTABPrimaryHits),
		row("htab-hits (prim+sec)", n(KindHTABHitPrimary)+n(KindHTABHitSecondary), c.HTABHits),
		row("htab-miss", n(KindHTABMiss), c.HTABMisses),
		row("hashmiss-fault", n(KindHashMissFault), c.HashMissFaults),
		row("soft-reload", n(KindSoftReload), c.SoftwareReloads),
		row("htab-insert-free", n(KindHTABInsertFree), c.HTABFreeSlot),
		row("htab-evict-live", n(KindHTABEvictLive), c.HTABEvictsValid),
		row("htab-evict-zombie", n(KindHTABEvictZombie), c.HTABEvictsZombie),
		row("htab-inserts (sum)",
			n(KindHTABInsertFree)+n(KindHTABEvictLive)+n(KindHTABEvictZombie),
			c.HTABInserts),
		row("ondemand-scan", n(KindOnDemandScan), c.OnDemandScans),
		row("minor-fault", n(KindMinorFault), c.MinorFaults),
		row("major-fault", n(KindMajorFault), c.MajorFaults),
		row("flush-page", n(KindFlushPage), c.FlushPage),
		row("flush-range", n(KindFlushRange), c.FlushRange),
		row("flush-context", n(KindFlushContext), c.FlushContext),
		row("ctx-switch", n(KindCtxSwitch), c.CtxSwitches),
		row("zombies-reclaimed (aux)",
			h[KindIdleReclaim].AuxTotal+h[KindOnDemandScan].AuxTotal,
			c.ZombiesReclaimed),
		row("page-zero", n(KindPageZero), c.IdlePagesCleared),
		row("swap-out", n(KindSwapOut), c.SwapOuts),
		row("swap-in", n(KindSwapIn), c.SwapIns),
		row("machine-check", n(KindMachineCheck), c.MachineChecks),
		row("mc-repair-tlb", n(KindMCRepairTLB), c.MCRepairsTLB),
		row("mc-repair-htab", n(KindMCRepairHTAB), c.MCRepairsHTAB),
		row("mc-repair-bat", n(KindMCRepairBAT), c.MCRepairsBAT),
		row("mc-repair-cache", n(KindMCRepairCache), c.MCRepairsCache),
		row("mc-escalate", n(KindMCEscalate), c.MCEscalations),
		row("mc-spurious", n(KindMCSpurious), c.MCSpurious),
		row("mc-outcomes (sum)",
			n(KindMCRepairTLB)+n(KindMCRepairHTAB)+n(KindMCRepairBAT)+
				n(KindMCRepairCache)+n(KindMCEscalate)+n(KindMCSpurious),
			c.MachineChecks),
	}
}
