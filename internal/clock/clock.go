// Package clock provides the simulated time base: CPU models for the
// PowerPC 603 and 604 parts the paper measures, a cycle ledger that every
// simulated component charges against, and conversion from cycles to the
// microseconds/MB-per-second units LmBench reports.
package clock

import (
	"fmt"
	"sync/atomic"
)

// CPUKind distinguishes the two TLB-reload mechanisms the paper studies:
// the 603 takes a software interrupt on every TLB miss, the 604 walks the
// hashed page table in hardware and only interrupts on a hash-table miss.
type CPUKind int

const (
	// CPU603 reloads its TLB entirely in software.
	CPU603 CPUKind = iota
	// CPU604 reloads its TLB with a hardware hash-table search. Per §4
	// of the paper this also stands in for the 601 and 750.
	CPU604
)

func (k CPUKind) String() string {
	switch k {
	case CPU603:
		return "603"
	case CPU604:
		return "604"
	}
	return fmt.Sprintf("CPUKind(%d)", int(k))
}

// CPUModel describes one concrete part + board combination. The cache
// and TLB geometry come from the 603/604 user's manuals; the cost
// constants come from the paper's own measurements (§5, §6).
type CPUModel struct {
	// Name labels the model in reports ("604 185MHz" etc).
	Name string
	// Kind selects the TLB reload mechanism.
	Kind CPUKind
	// MHz is the core clock; it converts cycles to wall-clock time.
	MHz int

	// TLBEntries is the total TLB capacity: 128 on the 603, 256 on
	// the 604 (§5.1). The TLB is 2-way on both (ppc.NewTLB).
	TLBEntries int
	// SplitTLB models the real parts' separate instruction/data TLBs
	// (each of TLBEntries/2 entries) instead of the default unified
	// model the paper's entry counts suggest. An ablation toggle.
	SplitTLB bool

	// L1Size is the size of each of the split I/D caches: 16 KB on
	// the 603, 32 KB on the 604, both 4-way (cache.Ways).
	L1Size int
	// LineSize is the cache line size in bytes (32 on both).
	LineSize int

	// MemLatency is the cost in cycles of a cache-line fill from main
	// memory. The paper notes the 604/200 machine had "significantly
	// faster main memory and a better board design".
	MemLatency int

	// MissHandlerEntry is the fixed cost to invoke and return from the
	// software TLB-miss handler: 32 cycles on the 603 (§5).
	MissHandlerEntry int
	// HWWalkCycles is the worst-case cost of the 604's hardware hash
	// search: up to 120 cycles and 16 memory accesses (§5). The model
	// charges proportionally when the entry is found early.
	HWWalkCycles int
	// HashMissInterrupt is the additional cost to invoke the software
	// handler when the hardware search fails: at least 91 cycles (§5).
	HashMissInterrupt int
}

// Standard machine configurations measured in the paper. RAM is 32 MB
// in every configuration (§4), which keeps the RAM : hash-table : TLB
// ratio fixed.
func model603(name string, mhz, memLat int) CPUModel {
	return CPUModel{
		Name: name, Kind: CPU603, MHz: mhz,
		TLBEntries: 128, L1Size: 16 * 1024, LineSize: 32,
		MemLatency:       memLat,
		MissHandlerEntry: 32,
		// The 603 never walks the table in hardware, but the software
		// emulation of the 604 search (§6.2) uses the same per-access
		// memory costs, charged through the cache model.
		HWWalkCycles:      0,
		HashMissInterrupt: 0,
	}
}

func model604(name string, mhz, memLat int) CPUModel {
	return CPUModel{
		Name: name, Kind: CPU604, MHz: mhz,
		TLBEntries: 256, L1Size: 32 * 1024, LineSize: 32,
		MemLatency:        memLat,
		MissHandlerEntry:  32,
		HWWalkCycles:      120,
		HashMissInterrupt: 91,
	}
}

// PPC603At133 is the 133 MHz 603 used in Table 2.
func PPC603At133() CPUModel { return model603("603 133MHz", 133, 30) }

// PPC603At180 is the 180 MHz 603 used in Table 1.
func PPC603At180() CPUModel { return model603("603 180MHz", 180, 34) }

// PPC604At185 is the 185 MHz 604 used in Tables 1 and 2.
func PPC604At185() CPUModel { return model604("604 185MHz", 185, 34) }

// PPC604At200 is the 200 MHz 604 with the faster memory system noted
// in §6.2 of the paper.
func PPC604At200() CPUModel { return model604("604 200MHz", 200, 26) }

// PPC604At133 is the 133 MHz 604 PowerMac 9500 used for the OS
// comparison in Table 3.
func PPC604At133() CPUModel { return model604("604 133MHz", 133, 30) }

// ModelByName returns a standard configuration by its CLI name:
// "603/133", "603/180", "604/133", "604/185", "604/200".
func ModelByName(name string) (CPUModel, bool) {
	switch name {
	case "603/133":
		return PPC603At133(), true
	case "603/180":
		return PPC603At180(), true
	case "604/133":
		return PPC604At133(), true
	case "604/185":
		return PPC604At185(), true
	case "604/200":
		return PPC604At200(), true
	}
	return CPUModel{}, false
}

// Cycles is a count of simulated CPU cycles.
type Cycles uint64

// meter is the process-wide total of simulated cycles charged across
// all ledgers. Ledgers flush to it in batches so the (single-hottest-
// path) Charge call pays no atomic per charge; the total therefore
// trails reality by less than meterBatch cycles per live ledger.
var meter atomic.Uint64

// meterBatch is the flush granularity: small enough that per-experiment
// readings are accurate to a fraction of a percent, large enough that
// the atomic add is amortized over tens of thousands of charges.
const meterBatch = 1 << 16

// MeterNow returns the process-wide simulated-cycle total. It is safe
// to call concurrently; per-interval attribution is only exact when a
// single simulation runs at a time (the sequential harness pass).
func MeterNow() uint64 { return meter.Load() }

// Ledger accumulates simulated cycles. Components charge it; the
// benchmark harness reads elapsed time from it. A Ledger also tracks a
// nesting count of "accounting pauses" so measurement scaffolding can
// exclude itself (not used by the kernel proper).
type Ledger struct {
	mhz     int
	cycles  Cycles
	pending Cycles
	budget  Cycles
}

// defaultBudget seeds every new ledger's cycle budget; zero (the
// process default) means unlimited. The report harness sets it so a
// runaway experiment trips a watchdog instead of hanging the run.
var defaultBudget atomic.Uint64

// SetDefaultBudget sets the budget NewLedger hands to future ledgers
// (0 = unlimited) and returns the previous value so callers can
// restore it.
func SetDefaultBudget(n Cycles) (old Cycles) {
	return Cycles(defaultBudget.Swap(uint64(n)))
}

// NewLedger returns a ledger converting cycles at the given core clock.
func NewLedger(mhz int) *Ledger {
	if mhz <= 0 {
		panic("clock: non-positive MHz")
	}
	return &Ledger{mhz: mhz, budget: Cycles(defaultBudget.Load())}
}

// SetBudget caps this ledger at n cycles (0 = unlimited), overriding
// the process default it inherited. Exceeding the cap panics with a
// *BudgetError on the Charge that crosses it.
func (l *Ledger) SetBudget(n Cycles) { l.budget = n }

// BudgetError is the panic value a ledger raises when a Charge pushes
// it past its cycle budget. The report harness string-matches Error()
// to classify the failure, so the message keeps the fixed phrase
// "cycle budget exceeded".
type BudgetError struct {
	// Limit is the budget that was exceeded.
	Limit Cycles
	// Spent is the ledger's total at the tripping charge.
	Spent Cycles
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("clock: cycle budget exceeded: spent %d of %d simulated cycles", e.Spent, e.Limit)
}

// trip raises the budget watchdog. Kept out of Charge so the hot path
// stays allocation-free; trip runs at most once per ledger lifetime.
func (l *Ledger) trip() {
	panic(&BudgetError{Limit: l.budget, Spent: l.cycles})
}

// Charge adds n cycles to the ledger. Negative charges are rejected.
func (l *Ledger) Charge(n Cycles) {
	l.cycles += n
	if l.budget != 0 && l.cycles > l.budget {
		l.trip()
	}
	l.pending += n
	if l.pending >= meterBatch {
		meter.Add(uint64(l.pending))
		l.pending = 0
	}
}

// Now returns the cycle count so far.
func (l *Ledger) Now() Cycles { return l.cycles }

// MHz returns the clock rate the ledger converts at.
func (l *Ledger) MHz() int { return l.mhz }

// Micros converts a cycle delta to microseconds at the ledger's clock.
func (l *Ledger) Micros(d Cycles) float64 {
	return float64(d) / float64(l.mhz)
}

// Seconds converts a cycle delta to seconds at the ledger's clock.
func (l *Ledger) Seconds(d Cycles) float64 {
	return float64(d) / float64(l.mhz) / 1e6
}

// MBPerSec converts bytes moved in a cycle delta to MB/s (LmBench's
// 1 MB = 1e6 bytes convention).
func (l *Ledger) MBPerSec(bytes int64, d Cycles) float64 {
	if d == 0 {
		return 0
	}
	return float64(bytes) / 1e6 / l.Seconds(d)
}
