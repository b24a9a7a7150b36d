// Package faultinject is the seeded, deterministic fault-injection
// layer behind the chaos harness (mmu chaos). It decides *when* a
// hardware fault fires and *which kind*, while the owning layer applies
// the corruption to its own state: the ppc package flips TLB/HTAB/BAT
// state, the machine flips cache lines, and the kernel flips page-table
// entries. Faults that real hardware would surface as a machine check
// are queued here as Pending records carrying the architectural error
// report (cause + failing address), and the kernel's machine-check
// handler drains the queue at the next safe point.
//
// Design rules, mirroring the tracer (mmtrace):
//
//   - the zero-injection path is one branch: every injection site is
//     gated on a nil Injector, and an attached-but-disarmed Injector
//     adds no cycles, no counters, and no PRNG draws;
//   - the armed path allocates nothing (fixed arrays, splitmix64
//     PRNG), which the hot path proof (tools/hotpath) checks in the
//     code compiled for every caller in the translation path;
//   - everything is a pure function of the Schedule seed and the
//     simulated instruction stream, so a chaos run is byte-identical
//     for a given seed at any harness parallelism.
//
// Every fired fault is recorded as either Applied (corruption landed
// in machine state and a detectable report was queued) or Skipped (no
// eligible victim, or the pending queue was full) — so "every injected
// fault was detected and repaired" is an exact, auditable identity
// against the kernel's repair counters, not a statistical claim.
package faultinject

import "mmutricks/internal/arch"

// Kind enumerates the injectable fault kinds.
type Kind uint8

const (
	// TLBFlip flips the frame number of a valid TLB entry (TLB parity
	// error; machine check).
	TLBFlip Kind = iota
	// TLBSpurious invalidates a valid TLB entry for no reason. Benign:
	// the translation refaults and reloads; no machine check is raised
	// and no repair is expected, but correctness must survive it.
	TLBSpurious
	// HTABFlip flips the frame number of a valid hashed-page-table PTE
	// (uncorrectable ECC error in table memory; machine check).
	HTABFlip
	// HTABResurrect re-validates a stale, invalidated PTE slot with a
	// flipped frame — the zombie-PTE hazard the paper's lazy flushing
	// widens, forced to actually happen.
	HTABResurrect
	// BATFlip flips the physical base of a valid BAT register (BAT
	// parity error; machine check).
	BATFlip
	// PTEFlip flips the frame number of a present entry in a live
	// task's page-table tree (uncorrectable ECC in page-table memory).
	// The tree is the canonical source of truth, so this is not
	// repairable — the kernel escalates to killing the owning task.
	PTEFlip
	// CacheFlip marks a clean, valid D-cache line as having a parity
	// error (machine check; repaired by invalidating the line).
	CacheFlip
	// SpuriousMC delivers a machine check with nothing actually wrong,
	// exercising the handler's classify-then-verify path.
	SpuriousMC

	// NumKinds is the number of fault kinds.
	NumKinds
)

// kindNames index-aligns with the Kind constants.
var kindNames = [NumKinds]string{
	"tlb-flip",
	"tlb-spurious",
	"htab-flip",
	"htab-resurrect",
	"bat-flip",
	"pte-flip",
	"cache-flip",
	"spurious-mc",
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

// RaisesMC reports whether an applied fault of this kind queues a
// machine check (TLBSpurious is benign and does not).
func (k Kind) RaisesMC() bool { return k != TLBSpurious }

// Site identifies an injection point. Each site may only apply the
// kinds whose state it owns.
type Site uint8

const (
	// SiteTranslate is the top of ppc.MMU.Translate: TLB, HTAB and BAT
	// faults.
	SiteTranslate Site = iota
	// SiteMemAccess is machine.MemAccess: cache-line corruption and
	// spurious machine checks.
	SiteMemAccess
	// SiteAccess is the end of the kernel's top-level access path:
	// page-table-tree corruption (and machine-check delivery).
	SiteAccess

	// NumSites is the number of injection sites.
	NumSites
)

// siteKinds masks which kinds each site may apply.
var siteKinds = [NumSites][NumKinds]bool{
	SiteTranslate: {TLBFlip: true, TLBSpurious: true, HTABFlip: true, HTABResurrect: true, BATFlip: true},
	SiteMemAccess: {CacheFlip: true, SpuriousMC: true},
	SiteAccess:    {PTEFlip: true},
}

// Cause is the architectural machine-check cause code the "hardware"
// reports — the simulated analogue of what SRR1/DSISR encode on a real
// 603/604 when a parity or ECC error is detected.
type Cause uint8

const (
	CauseNone Cause = iota
	// CauseTLBParity: a TLB entry failed parity; Pending.VPN names it.
	CauseTLBParity
	// CauseHTABECC: hash-table memory failed ECC; Pending.Addr is the
	// failing PTE's physical address, Pending.VPN the page it held.
	CauseHTABECC
	// CauseBATParity: a BAT register failed parity.
	CauseBATParity
	// CauseCacheParity: a D-cache line failed parity; Pending.Addr is
	// the line's physical address.
	CauseCacheParity
	// CausePTEECC: page-table-tree memory failed ECC; Pending.Addr is
	// the failing PTE's physical address, Pending.PID/EA the owner.
	CausePTEECC
	// CauseSpurious: a machine check with no real fault behind it.
	CauseSpurious
)

var causeNames = [...]string{
	"none", "tlb-parity", "htab-ecc", "bat-parity",
	"cache-parity", "pte-ecc", "spurious",
}

func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return "cause(?)"
}

// Pending is one undelivered machine check: the error report the
// hardware latches until the kernel takes the interrupt.
type Pending struct {
	Cause Cause
	// Addr is the failing physical address (HTAB PTE, cache line, or
	// page-table entry), when the cause reports one.
	Addr arch.PhysAddr
	// VPN is the virtual page the poisoned entry translated (TLB and
	// HTAB causes).
	VPN arch.VPN
	// PID and EA identify the owning task and mapped address for
	// page-table ECC faults.
	PID uint32
	EA  arch.EffectiveAddr
}

// MaxPending bounds the undelivered machine-check queue, like the
// single-entry (or few-entry) error-report registers of real parts.
// When the queue is full further MC-raising faults are Skipped, never
// silently applied.
const MaxPending = 16

// Injector is one machine's fault source. It is not safe for
// concurrent use; the chaos harness gives each simulated machine its
// own Injector, which is what keeps parallel runs deterministic.
type Injector struct {
	sched   Schedule
	state   uint64
	armed   bool
	suspend int

	applied [NumKinds]uint64
	skipped [NumKinds]uint64

	pending [MaxPending]Pending
	npend   int
}

// New builds an Injector for a schedule. The Injector starts disarmed;
// call Arm after the kernel has booted.
func New(s Schedule) *Injector {
	if err := s.Validate(); err != nil {
		panic("faultinject: " + err.Error())
	}
	return &Injector{sched: s, state: s.Seed}
}

// Arm enables fault firing. Disarm stops it (pending machine checks
// remain deliverable).
func (j *Injector) Arm()    { j.armed = true }
func (j *Injector) Disarm() { j.armed = false }

// Armed reports whether faults can fire.
func (j *Injector) Armed() bool { return j != nil && j.armed }

// Suspend pauses fault firing (nestable); the kernel suspends the
// injector inside fault handlers and the machine-check handler so
// corruption cannot land mid-repair. Nil-safe.
func (j *Injector) Suspend() {
	if j != nil {
		j.suspend++
	}
}

// Resume undoes one Suspend. Nil-safe.
func (j *Injector) Resume() {
	if j != nil {
		j.suspend--
	}
}

// Rand advances the splitmix64 PRNG and returns the next draw. The
// owning layers use it to pick victims deterministically.
func (j *Injector) Rand() uint64 {
	j.state += 0x9E3779B97F4A7C15
	z := j.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Fire decides whether faults fire at this poll of the given site,
// returning how many to inject now (0 almost always; Schedule.Burst
// when the rate trigger fires). One branch when disarmed or suspended.
func (j *Injector) Fire(site Site) int {
	if !j.armed || j.suspend > 0 || j.sched.RatePPM == 0 {
		return 0
	}
	_ = site // the rate is global; the kind mix is per-site (PickKind)
	if uint32(j.Rand()%1000000) >= j.sched.RatePPM {
		return 0
	}
	if j.sched.Burst < 1 {
		return 1
	}
	return j.sched.Burst
}

// PickKind draws a fault kind for the site, weighted by the schedule's
// mix restricted to the kinds the site owns. ok is false when the mix
// gives the site nothing to inject.
func (j *Injector) PickKind(site Site) (Kind, bool) {
	var total uint64
	for k := Kind(0); k < NumKinds; k++ {
		if siteKinds[site][k] {
			total += uint64(j.sched.Weights[k])
		}
	}
	if total == 0 {
		return 0, false
	}
	r := j.Rand() % total
	for k := Kind(0); k < NumKinds; k++ {
		if !siteKinds[site][k] {
			continue
		}
		w := uint64(j.sched.Weights[k])
		if r < w {
			return k, true
		}
		r -= w
	}
	return 0, false
}

// QueueFull reports whether another Pending can be queued. Sites must
// check it BEFORE corrupting state, so a fault is never applied
// without its error report (that would be undetectable corruption).
func (j *Injector) QueueFull() bool { return j.npend == MaxPending }

// Push queues a machine-check report. Callers must have checked
// QueueFull.
func (j *Injector) Push(p Pending) {
	if j.npend == MaxPending {
		panic("faultinject: pending queue overflow")
	}
	j.pending[j.npend] = p
	j.npend++
}

// NoteApplied records that a fault of kind k landed in machine state.
func (j *Injector) NoteApplied(k Kind) { j.applied[k]++ }

// NoteSkipped records that a fired fault found no eligible victim (or
// no queue space) and was dropped without touching state.
func (j *Injector) NoteSkipped(k Kind) { j.skipped[k]++ }

// HasMC reports whether a machine check is pending. Nil-safe, one
// branch when there is no injector.
func (j *Injector) HasMC() bool { return j != nil && j.npend > 0 }

// TakeMC removes and returns the next pending machine check. Real
// faults are delivered before spurious ones, so a spurious delivery's
// full-sweep verification never sees (and double-repairs) poison that
// has its own report queued behind it.
func (j *Injector) TakeMC() (Pending, bool) {
	if j == nil || j.npend == 0 {
		return Pending{}, false
	}
	idx := 0
	for i := 0; i < j.npend; i++ {
		if j.pending[i].Cause != CauseSpurious {
			idx = i
			break
		}
	}
	p := j.pending[idx]
	copy(j.pending[idx:j.npend-1], j.pending[idx+1:j.npend])
	j.npend--
	return p, true
}

// Applied returns the per-kind count of faults that landed in machine
// state.
func (j *Injector) Applied() [NumKinds]uint64 { return j.applied }

// Skipped returns the per-kind count of fired-but-dropped faults.
func (j *Injector) Skipped() [NumKinds]uint64 { return j.skipped }

// Schedule returns the schedule the injector was built with.
func (j *Injector) Schedule() Schedule { return j.sched }

// DeriveSeed mixes a run seed with a salt (e.g. a section index) into
// an independent stream seed, so every chaos section gets its own
// deterministic fault sequence.
func DeriveSeed(seed, salt uint64) uint64 {
	z := seed ^ (salt+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
