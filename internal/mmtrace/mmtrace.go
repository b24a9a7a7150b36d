// Package mmtrace is the event-level observability layer under every
// measurement in the reproduction: a fixed-capacity, allocation-free
// ring-buffer tracer that the MMU model, the kernel, and the machine's
// cache model emit into. Where package hwmon answers "how many" (the
// aggregate counters the paper reads its claims off), mmtrace answers
// "when, to whom, and at what cost": each event carries a cycle
// timestamp from the machine's clock.Ledger, the VSID and task it
// belongs to, the effective address involved, and the cycle cost of the
// operation.
//
// The tracer is also the one instrumentation point for the counters
// that have an event: each typed call (TLBMiss, MajorFault,
// FlushRange, ...; events.go) bumps its hwmon counters and records its
// event, so the two agree by construction. It is built for the
// translation hot path:
//
//   - a disabled call costs its counter bumps plus one (inlined)
//     branch;
//   - the record path allocates nothing — events land in a
//     pre-allocated ring, histograms in fixed arrays — and is
//     annotated //mmutricks:noalloc, so mmulint proves the property
//     statically over every caller in the translation path;
//   - when the ring wraps, the oldest events are overwritten (the
//     ring always holds the most recent Capacity events) but the
//     histograms and per-task totals keep counting, so aggregate
//     statistics cover the whole run and reconcile exactly with the
//     hwmon.Counters deltas for the same window.
package mmtrace

import (
	"math/bits"

	"mmutricks/internal/arch"
	"mmutricks/internal/clock"
	"mmutricks/internal/hwmon"
)

// Kind classifies one traced event. The set mirrors the places the
// paper's counters live: the MMU's translation machinery (§5, §6), the
// kernel's fault and flush paths (§6, §7), the idle task (§7, §9), and
// the cache model's fill costs (§8).
type Kind uint8

const (
	// KindTLBMiss: a translation missed the TLB. On the 604 the cost
	// is the hardware hash-search (plus the hash-miss interrupt when
	// the search fails); on the 603 the cost is carried by the
	// KindSoftReload event the software handler emits.
	KindTLBMiss Kind = iota
	// KindTLBInsert: a translation was loaded into a TLB.
	KindTLBInsert
	// KindTLBEvict: the insert displaced a valid entry.
	KindTLBEvict
	// KindHTABHitPrimary / KindHTABHitSecondary: a hash-table search
	// (hardware on the 604, software emulation on the 603) found the
	// PTE in the primary or the secondary bucket.
	KindHTABHitPrimary
	KindHTABHitSecondary
	// KindHTABMiss: neither bucket matched.
	KindHTABMiss
	// KindHashMissFault: the 604 hash-miss interrupt's software
	// handler ran; cost is the handler path (the >=91-cycle interrupt
	// entry is charged by the MMU before the handler is reached).
	KindHashMissFault
	// KindSoftReload: the 603 software TLB reload ran; cost is the
	// whole handler (entry, search, insert).
	KindSoftReload
	// KindHTABInsertFree / KindHTABEvictLive / KindHTABEvictZombie: a
	// PTE was installed in the hash table into a free slot, over a
	// live PTE, or over a zombie PTE (§7's evict accounting).
	KindHTABInsertFree
	KindHTABEvictLive
	KindHTABEvictZombie
	// KindOnDemandScan: an insert found both buckets full and swept
	// the table synchronously (§7's rejected design). Aux is the
	// number of zombies reclaimed.
	KindOnDemandScan
	// KindMinorFault / KindMajorFault: do_page_fault resolved against
	// an existing translation/page-cache frame, or had to allocate.
	KindMinorFault
	KindMajorFault
	// KindFlushPage / KindFlushRange / KindFlushContext: the three
	// flush entry points. Aux of a range flush is its page count.
	KindFlushPage
	KindFlushRange
	// KindFlushCutoff: a range flush exceeded the §7 cutoff and was
	// converted to a whole-context flush. Aux is the page count that
	// triggered the conversion.
	KindFlushCutoff
	KindFlushContext
	// KindVSIDReassign: a task received a fresh context's VSIDs (the
	// lazy-flush mechanism, and every fork/exec). Aux is the context
	// number.
	KindVSIDReassign
	// KindCtxSwitch: a context switch; the event's task is the
	// incoming task.
	KindCtxSwitch
	// KindIdleReclaim: an idle-task sweep invalidated zombie PTEs.
	// Aux is how many.
	KindIdleReclaim
	// KindPageZero: the idle task pre-zeroed one page (§9). EA holds
	// the physical address of the frame.
	KindPageZero
	// KindSwapOut / KindSwapIn: a page moved to or from the swap
	// device.
	KindSwapOut
	KindSwapIn
	// KindCacheFill: a cache miss (or inhibited access) paid a fill
	// from memory; cost is the fill latency, EA holds the physical
	// address, Aux the cache traffic class.
	KindCacheFill
	// KindMachineCheck: a machine-check interrupt was delivered. EA
	// holds the failing physical address the error report carried, Aux
	// the faultinject.Cause code, cost the handler-entry cost.
	KindMachineCheck
	// KindMCRepairTLB / KindMCRepairHTAB / KindMCRepairBAT /
	// KindMCRepairCache: the handler repaired poisoned state by
	// invalidating the TLB entry, hash-table slot, or cache line, or by
	// reprogramming the BATs from the kernel's canonical map. Exactly
	// one repair/escalate/spurious event follows each KindMachineCheck.
	KindMCRepairTLB
	KindMCRepairHTAB
	KindMCRepairBAT
	KindMCRepairCache
	// KindMCEscalate: the fault was not repairable (canonical
	// page-table memory was poisoned); the owning task was killed. Aux
	// is the victim PID.
	KindMCEscalate
	// KindMCSpurious: classification and a full invariant sweep found
	// nothing wrong; the delivery was logged and dismissed.
	KindMCSpurious

	// NumKinds is the number of event kinds.
	NumKinds
)

// kindNames index-aligns with the Kind constants; KindNames and
// KindByName expose the mapping for serialization.
var kindNames = [NumKinds]string{
	"tlb-miss",
	"tlb-insert",
	"tlb-evict",
	"htab-hit-primary",
	"htab-hit-secondary",
	"htab-miss",
	"hashmiss-fault",
	"soft-reload",
	"htab-insert-free",
	"htab-evict-live",
	"htab-evict-zombie",
	"ondemand-scan",
	"minor-fault",
	"major-fault",
	"flush-page",
	"flush-range",
	"flush-cutoff",
	"flush-context",
	"vsid-reassign",
	"ctx-switch",
	"idle-reclaim",
	"page-zero",
	"swap-out",
	"swap-in",
	"cache-fill",
	"machine-check",
	"mc-repair-tlb",
	"mc-repair-htab",
	"mc-repair-bat",
	"mc-repair-cache",
	"mc-escalate",
	"mc-spurious",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind(?)"
}

// KindByName returns the Kind with the given String form.
func KindByName(name string) (Kind, bool) {
	for i, n := range kindNames {
		if n == name {
			return Kind(i), true
		}
	}
	return 0, false
}

// Event is one traced occurrence. Which fields are meaningful depends
// on the kind (see the Kind constants); unknown fields are zero.
type Event struct {
	// Time is the emitting machine's ledger reading when the event
	// completed (costs are charged before the event is emitted, so
	// Time-Cost brackets the operation).
	Time clock.Cycles
	// Cost is the simulated cycle cost attributed to the event.
	Cost clock.Cycles
	// Kind classifies the event.
	Kind Kind
	// Task is the PID current when the event fired (0: none/boot).
	Task uint32
	// VSID is the virtual segment the event concerns, when one does.
	VSID arch.VSID
	// EA is the effective address involved (for KindPageZero and
	// KindCacheFill it carries a physical address).
	EA arch.EffectiveAddr
	// Aux is a kind-specific argument (page counts, reclaim counts,
	// cache class).
	Aux uint32
}

// HistBuckets is the bucket count of the log2 cost histograms: bucket
// 0 holds zero-cost events, bucket i holds costs in [2^(i-1), 2^i).
const HistBuckets = 33

// Hist is the cycle-cost distribution of one event class. It covers
// every recorded event of the class — including events the ring has
// since overwritten — so Count reconciles with the hwmon counter the
// class's typed call bumps.
type Hist struct {
	// Count is how many events were emitted.
	Count uint64
	// CostTotal is the summed cycle cost.
	CostTotal uint64
	// AuxTotal is the summed Aux argument (meaningful for classes
	// whose Aux is a count: reclaims, range pages).
	AuxTotal uint64
	// Buckets is the log2 cost histogram.
	Buckets [HistBuckets]uint64
}

// bucketOf maps a cost to its log2 bucket.
//
//mmutricks:noalloc
func bucketOf(c clock.Cycles) int {
	b := bits.Len64(uint64(c))
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// BucketLabel renders bucket i's cost range ("0", "1", "2-3",
// "4-7", ...).
func BucketLabel(i int) string {
	switch i {
	case 0:
		return "0"
	case 1:
		return "1"
	}
	return itoa(uint64(1)<<(i-1)) + "-" + itoa(uint64(1)<<i-1)
}

// itoa is a tiny strconv.FormatUint(v, 10) so the package's only
// imports stay arch, clock, hwmon and math/bits.
func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// Mean returns the average cost of the class, 0 when empty.
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.CostTotal) / float64(h.Count)
}

// TaskSlots is the size of the fixed per-task attribution table. Slots
// are indexed PID mod TaskSlots; the workloads the tracer records keep
// well under TaskSlots live PIDs, so collisions (which would merge two
// tasks' totals) do not arise in practice.
const TaskSlots = 256

// TaskStat accumulates per-task attribution: how many events a task
// incurred and their summed cycle cost.
type TaskStat struct {
	PID       uint32
	Events    uint64
	CostTotal uint64
}

// Tracer counts and records events for one simulated machine. It is
// fixed-size after construction: the record path touches only
// pre-allocated memory. A Tracer is not safe for concurrent use — like
// the Machine it instruments, it belongs to one simulation goroutine.
type Tracer struct {
	enabled  bool
	curTask  uint32
	led      *clock.Ledger
	mon      *hwmon.Counters
	ring     []Event
	capacity int
	head     uint64 // total events ever emitted
	hists    [NumKinds]Hist
	tasks    [TaskSlots]TaskStat
}

// DefaultCapacity is the ring size machines construct their tracer
// with: 32 Ki events (~1.5 MB), enough to hold the tail of any
// benchmark window while staying cheap to allocate per machine.
const DefaultCapacity = 1 << 15

// NewTracer builds a disabled tracer reading timestamps from led and
// bumping the counters in mon. The ring is allocated on first Enable,
// so machines that never trace — most harness cells — pay nothing for
// it.
func NewTracer(led *clock.Ledger, mon *hwmon.Counters, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{led: led, mon: mon, capacity: capacity}
}

// Counters returns the counter file the typed event calls bump.
//
//mmutricks:noalloc
func (t *Tracer) Counters() *hwmon.Counters { return t.mon }

// Enable starts recording. The hwmon.Counters snapshot for the
// reconciliation window should be taken at the same moment.
func (t *Tracer) Enable() {
	if t.ring == nil {
		t.ring = make([]Event, t.capacity)
	}
	t.enabled = true
}

// Disable stops recording; the collected data stays readable.
func (t *Tracer) Disable() { t.enabled = false }

// Enabled reports whether the tracer is recording.
//
//mmutricks:noalloc
func (t *Tracer) Enabled() bool { return t.enabled }

// Reset discards everything recorded (the enabled flag and current
// task are kept).
func (t *Tracer) Reset() {
	for i := range t.ring {
		t.ring[i] = Event{}
	}
	t.head = 0
	t.hists = [NumKinds]Hist{}
	t.tasks = [TaskSlots]TaskStat{}
}

// SetTask names the task subsequent events are attributed to; the
// kernel calls it on every context switch.
//
//mmutricks:noalloc
func (t *Tracer) SetTask(pid uint32) { t.curTask = pid }

// record is the enabled slow path every typed event call (events.go)
// takes when tracing is on: histogram, per-task attribution, ring
// store. No allocation on any branch.
//
//mmutricks:noalloc
func (t *Tracer) record(kind Kind, vs arch.VSID, ea arch.EffectiveAddr, cost clock.Cycles, aux uint32) {
	h := &t.hists[kind]
	h.Count++
	h.CostTotal += uint64(cost)
	h.AuxTotal += uint64(aux)
	h.Buckets[bucketOf(cost)]++

	s := &t.tasks[t.curTask%TaskSlots]
	s.PID = t.curTask
	s.Events++
	s.CostTotal += uint64(cost)

	t.ring[t.head%uint64(len(t.ring))] = Event{
		Time: t.led.Now(),
		Cost: cost,
		Kind: kind,
		Task: t.curTask,
		VSID: vs,
		EA:   ea,
		Aux:  aux,
	}
	t.head++
}

// Capacity returns the ring size.
func (t *Tracer) Capacity() int { return t.capacity }

// Emitted returns how many events have been emitted since the last
// Reset (including events the ring has overwritten).
func (t *Tracer) Emitted() uint64 { return t.head }

// Dropped returns how many events the ring has overwritten.
func (t *Tracer) Dropped() uint64 {
	if t.head <= uint64(len(t.ring)) {
		return 0
	}
	return t.head - uint64(len(t.ring))
}

// Events returns a copy of the ring contents, oldest first. The first
// returned event has sequence number Dropped() (sequence numbers count
// from 0 at the last Reset).
func (t *Tracer) Events() []Event {
	n := t.head
	if n > uint64(len(t.ring)) {
		n = uint64(len(t.ring))
	}
	out := make([]Event, 0, n)
	start := t.head - n
	for i := uint64(0); i < n; i++ {
		out = append(out, t.ring[(start+i)%uint64(len(t.ring))])
	}
	return out
}

// Hist returns the cost histogram of one event class.
func (t *Tracer) Hist(k Kind) Hist { return t.hists[k] }

// Hists returns all per-class histograms, indexed by Kind.
func (t *Tracer) Hists() *[NumKinds]Hist {
	h := t.hists
	return &h
}

// TaskStats returns the non-empty per-task attribution rows in PID
// order.
func (t *Tracer) TaskStats() []TaskStat {
	var out []TaskStat
	for i := range t.tasks {
		if t.tasks[i].Events > 0 {
			out = append(out, t.tasks[i])
		}
	}
	// Slots are PID mod TaskSlots; a selection sort keeps the package
	// dependency-free and the row count is tiny.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].PID > out[j].PID; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
