// Package hwmon is the simulated analogue of the PowerPC 604 hardware
// performance monitor (and the software counters the paper used on the
// 603): a set of event counters that the MMU model and the kernel charge
// as they run. The paper's low-level claims — TLB-miss reductions, hash
// hit rates, evict ratios, hash-table occupancy — are read directly off
// these counters.
package hwmon

import (
	"fmt"
	"reflect"
	"strings"
)

// Counters is the full event-counter file. All fields are cumulative;
// use Snapshot/Delta to measure a window.
type Counters struct {
	// TLB behaviour.
	TLBHits   uint64
	TLBMisses uint64
	// BATHits counts translations satisfied by a BAT register (these
	// never consult the TLB, §5.1).
	BATHits uint64

	// Hash-table behaviour on TLB misses.
	HTABHits   uint64 // PTE found in primary or secondary bucket
	HTABMisses uint64 // neither bucket matched → software fault path
	// HTABPrimaryHits counts hits found in the primary bucket (the
	// remainder of HTABHits needed the secondary search).
	HTABPrimaryHits uint64

	// Hash-table maintenance.
	HTABInserts       uint64 // PTEs loaded into the table
	HTABEvictsValid   uint64 // insert displaced a valid, live PTE
	HTABEvictsZombie  uint64 // insert displaced a valid but zombie PTE
	HTABFreeSlot      uint64 // insert found an empty/invalid slot
	HTABFlushSearches uint64 // per-PTE flush searches (the §7 cost)

	// Reload mechanisms.
	SoftwareReloads uint64 // 603 software TLB reloads
	HardwareWalks   uint64 // 604 hardware table searches
	HashMissFaults  uint64 // 604 hash-miss interrupts taken

	// Page faults handled by the kernel proper.
	MinorFaults uint64 // translation existed in the page tree
	MajorFaults uint64 // new page had to be allocated/zeroed

	// Flush activity.
	FlushPage    uint64 // single-page flushes
	FlushRange   uint64 // range flushes executed PTE-by-PTE
	FlushContext uint64 // whole-context (VSID reassignment) flushes

	// Signals counts signal deliveries.
	Signals uint64

	// Kernel activity.
	Syscalls    uint64
	CtxSwitches uint64
	Forks       uint64
	Execs       uint64
	Exits       uint64
	// KthreadMMSwitches counts UseMM/UnuseMM address-space adoptions by
	// kernel threads — context-switch work that CtxSwitches does not
	// cover (the telemetry ctx-switch phase reconciles against the sum).
	KthreadMMSwitches uint64

	// SwapOuts and SwapIns count pages moved to and from the swap
	// device under memory pressure.
	SwapOuts uint64
	SwapIns  uint64

	// OnDemandScans counts reclaim bursts run synchronously because an
	// insert found both buckets full (§7's rejected design).
	OnDemandScans uint64

	// Idle task activity (§7, §9).
	IdlePolls        uint64
	ZombiesReclaimed uint64
	IdlePagesCleared uint64
	ClearedPageHits  uint64 // get_free_page served from the cleared list
	// IdleWaits counts entries into the idle loop (RunIdleFor calls) and
	// IdleScans counts hash-table reclaim sweeps the idle task started;
	// both anchor telemetry phase-entry reconciliation identities.
	IdleWaits uint64
	IdleScans uint64

	// Machine-check handling (the fault-injection recovery loop). Each
	// delivery increments MachineChecks plus exactly one of the repair,
	// escalation, or spurious counters, so injected-fault audits are
	// exact identities.
	MachineChecks  uint64 // machine-check interrupts taken
	MCRepairsTLB   uint64 // poisoned TLB entries invalidated
	MCRepairsHTAB  uint64 // poisoned/resurrected hash-table PTEs invalidated
	MCRepairsBAT   uint64 // BAT registers reprogrammed from the canonical map
	MCRepairsCache uint64 // poisoned clean cache lines invalidated
	MCEscalations  uint64 // unrepairable faults escalated to a task kill
	MCSpurious     uint64 // deliveries where verification found nothing wrong
}

// Snapshot returns a copy of the counters.
func (c *Counters) Snapshot() Counters { return *c }

// Delta returns the change since an earlier snapshot.
func (c *Counters) Delta(since Counters) Counters {
	d := *c
	d.zip(&since, func(a, b uint64) uint64 { return a - b })
	return d
}

// Add accumulates another counter set into c, field by field. The
// benchmark drivers use it to aggregate monitors from independent
// per-benchmark kernels into one machine-wide view.
func (c *Counters) Add(o Counters) {
	c.zip(&o, func(a, b uint64) uint64 { return a + b })
}

// zip sets every counter of c to f(its value, o's value) — one loop
// over the fields, so a new counter needs no entry here.
func (c *Counters) zip(o *Counters, f func(a, b uint64) uint64) {
	cv, ov := reflect.ValueOf(c).Elem(), reflect.ValueOf(o).Elem()
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).SetUint(f(cv.Field(i).Uint(), ov.Field(i).Uint()))
	}
}

// CounterNames returns the Go field name of every counter, in
// declaration order. Telemetry recordings serialize sampled counter
// snapshots as bare value arrays and store this name vector once, so
// the order here is a (reflection-derived, hence drift-proof) part of
// the recording format.
func CounterNames() []string {
	ty := reflect.TypeOf(Counters{})
	names := make([]string, ty.NumField())
	for i := range names {
		names[i] = ty.Field(i).Name
	}
	return names
}

// Values returns every counter value in CounterNames order.
func (c *Counters) Values() []uint64 {
	v := reflect.ValueOf(*c)
	out := make([]uint64, v.NumField())
	for i := range out {
		out[i] = v.Field(i).Uint()
	}
	return out
}

// TLBMissRate returns TLB misses / (hits+misses); 0 when idle.
func (c *Counters) TLBMissRate() float64 {
	t := c.TLBHits + c.TLBMisses
	if t == 0 {
		return 0
	}
	return float64(c.TLBMisses) / float64(t)
}

// HTABHitRate returns the hash-table hit rate on TLB misses — the
// paper's headline 85%–98% metric (§7).
func (c *Counters) HTABHitRate() float64 {
	t := c.HTABHits + c.HTABMisses
	if t == 0 {
		return 0
	}
	return float64(c.HTABHits) / float64(t)
}

// EvictRatio returns the fraction of hash-table reloads that had to
// replace a valid entry (live or zombie) — the >90% vs ~30% metric of
// §7.
func (c *Counters) EvictRatio() float64 {
	if c.HTABInserts == 0 {
		return 0
	}
	return float64(c.HTABEvictsValid+c.HTABEvictsZombie) / float64(c.HTABInserts)
}

// String renders the counters as an aligned table for reports.
func (c *Counters) String() string {
	var b strings.Builder
	row := func(name string, v uint64) { fmt.Fprintf(&b, "%-22s %12d\n", name, v) }
	row("tlb-hits", c.TLBHits)
	row("tlb-misses", c.TLBMisses)
	row("bat-hits", c.BATHits)
	row("htab-hits", c.HTABHits)
	row("htab-misses", c.HTABMisses)
	row("htab-primary-hits", c.HTABPrimaryHits)
	row("htab-inserts", c.HTABInserts)
	row("htab-evicts-valid", c.HTABEvictsValid)
	row("htab-evicts-zombie", c.HTABEvictsZombie)
	row("htab-free-slot", c.HTABFreeSlot)
	row("htab-flush-searches", c.HTABFlushSearches)
	row("sw-reloads", c.SoftwareReloads)
	row("hw-walks", c.HardwareWalks)
	row("hashmiss-faults", c.HashMissFaults)
	row("minor-faults", c.MinorFaults)
	row("major-faults", c.MajorFaults)
	row("flush-page", c.FlushPage)
	row("flush-range", c.FlushRange)
	row("flush-context", c.FlushContext)
	row("signals", c.Signals)
	row("syscalls", c.Syscalls)
	row("ctx-switches", c.CtxSwitches)
	row("forks", c.Forks)
	row("execs", c.Execs)
	row("exits", c.Exits)
	row("kthread-mm-switches", c.KthreadMMSwitches)
	row("swap-outs", c.SwapOuts)
	row("swap-ins", c.SwapIns)
	row("ondemand-scans", c.OnDemandScans)
	row("idle-polls", c.IdlePolls)
	row("zombies-reclaimed", c.ZombiesReclaimed)
	row("idle-pages-cleared", c.IdlePagesCleared)
	row("cleared-page-hits", c.ClearedPageHits)
	row("idle-waits", c.IdleWaits)
	row("idle-scans", c.IdleScans)
	row("machine-checks", c.MachineChecks)
	row("mc-repairs-tlb", c.MCRepairsTLB)
	row("mc-repairs-htab", c.MCRepairsHTAB)
	row("mc-repairs-bat", c.MCRepairsBAT)
	row("mc-repairs-cache", c.MCRepairsCache)
	row("mc-escalations", c.MCEscalations)
	row("mc-spurious", c.MCSpurious)
	fmt.Fprintf(&b, "%-22s %11.2f%%\n", "tlb-miss-rate", 100*c.TLBMissRate())
	fmt.Fprintf(&b, "%-22s %11.2f%%\n", "htab-hit-rate", 100*c.HTABHitRate())
	fmt.Fprintf(&b, "%-22s %11.2f%%\n", "evict-ratio", 100*c.EvictRatio())
	return b.String()
}

// Histogram is a simple integer histogram, used for the hash-bucket
// occupancy distribution the paper used to tune the VSID scatter
// constant (§5.2).
type Histogram struct {
	Buckets []uint64
}

// NewHistogram returns a histogram with n buckets.
func NewHistogram(n int) *Histogram { return &Histogram{Buckets: make([]uint64, n)} }

// Add increments bucket i (clamped to the last bucket).
func (h *Histogram) Add(i int) {
	if i < 0 {
		i = 0
	}
	if i >= len(h.Buckets) {
		i = len(h.Buckets) - 1
	}
	h.Buckets[i]++
}

// Total returns the sum over all buckets.
func (h *Histogram) Total() uint64 {
	var t uint64
	for _, v := range h.Buckets {
		t += v
	}
	return t
}

// Max returns the largest bucket count.
func (h *Histogram) Max() uint64 {
	var m uint64
	for _, v := range h.Buckets {
		if v > m {
			m = v
		}
	}
	return m
}

// String renders the histogram as rows of "index count bar".
func (h *Histogram) String() string {
	var b strings.Builder
	max := h.Max()
	for i, v := range h.Buckets {
		bar := 0
		if max > 0 {
			bar = int(v * 40 / max)
		}
		fmt.Fprintf(&b, "%3d %10d %s\n", i, v, strings.Repeat("#", bar))
	}
	return b.String()
}
