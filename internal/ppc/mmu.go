package ppc

import (
	"mmutricks/internal/arch"
	"mmutricks/internal/clock"
	"mmutricks/internal/faultinject"
	"mmutricks/internal/hwmon"
	"mmutricks/internal/mmtrace"
	"mmutricks/internal/telemetry"
)

// MMU ties the translation resources together for one CPU. It performs
// everything the hardware performs — BAT compare, segment lookup, TLB
// lookup, and (on the 604) the hardware hash-table search — and raises
// a Fault when software must take over.
type MMU struct {
	Model clock.CPUModel
	// IBAT and DBAT are the instruction and data BAT arrays.
	IBAT, DBAT BATArray
	// TLB is the data-side lookaside buffer; with a unified model (the
	// default — the paper reasons in total entry counts) ITLB is the
	// same object. With CPUModel.SplitTLB the two are separate halves,
	// as on the real 603.
	TLB *TLB
	// ITLB is the instruction-side buffer (== TLB when unified).
	ITLB *TLB
	// HTAB is the hashed page table in memory.
	HTAB *HTAB

	led *clock.Ledger
	bus Bus
	mon *hwmon.Counters
	trc *mmtrace.Tracer
	// ph is the phase ledger the 604's hardware walk attributes its
	// cycles to (nil = no attribution; the machine always sets one).
	ph *telemetry.Phases
	// inj is the attached fault injector; nil (the default) keeps the
	// injection points to a single never-taken branch.
	inj *faultinject.Injector

	segs [arch.NumSegments]arch.VSID

	// gen is the translation generation: bumped on every event that can
	// invalidate a previously returned translation (TLB invalidation,
	// BAT register change, segment register load). Fastpaths that cache
	// a translation remember the generation it was minted under and
	// treat a mismatch as "revalidate from scratch".
	gen uint64
}

// NewMMU builds an MMU for the given CPU model. Its counters are the
// ones trc's event calls bump.
func NewMMU(model clock.CPUModel, htab *HTAB, led *clock.Ledger, bus Bus, trc *mmtrace.Tracer) *MMU {
	mon := trc.Counters()
	m := &MMU{
		Model: model,
		HTAB:  htab,
		led:   led,
		bus:   bus,
		mon:   mon,
		trc:   trc,
		ph:    telemetry.New(led, mon),
	}
	if model.SplitTLB {
		m.TLB = NewTLB(model.TLBEntries/2, model.TLBWays)
		m.ITLB = NewTLB(model.TLBEntries/2, model.TLBWays)
	} else {
		m.TLB = NewTLB(model.TLBEntries, model.TLBWays)
		m.ITLB = m.TLB
	}
	m.TLB.gen = &m.gen
	m.ITLB.gen = &m.gen
	m.IBAT.gen = &m.gen
	m.DBAT.gen = &m.gen
	return m
}

// SetPhases replaces the phase ledger the hardware walk attributes to;
// the machine points the MMU at its own ledger during construction.
func (m *MMU) SetPhases(p *telemetry.Phases) { m.ph = p }

// Gen returns the current translation generation. Any cached
// translation minted under an older generation must be revalidated.
//
//mmutricks:noalloc
func (m *MMU) Gen() uint64 { return m.gen }

// TLBFor returns the lookaside buffer serving the given access side.
//
//mmutricks:noalloc
func (m *MMU) TLBFor(instr bool) *TLB {
	if instr {
		return m.ITLB
	}
	return m.TLB
}

// InvalidateVPNAll removes a translation from both TLBs (tlbie hits
// every array on the real parts).
func (m *MMU) InvalidateVPNAll(vpn arch.VPN) {
	m.TLB.InvalidateVPN(vpn)
	if m.ITLB != m.TLB {
		m.ITLB.InvalidateVPN(vpn)
	}
}

// InvalidateTLBs flushes both TLBs.
func (m *MMU) InvalidateTLBs() {
	m.TLB.InvalidateAll()
	if m.ITLB != m.TLB {
		m.ITLB.InvalidateAll()
	}
}

// KernelTLBEntries counts valid kernel translations across both TLBs.
func (m *MMU) KernelTLBEntries() int {
	n := m.TLB.KernelEntries()
	if m.ITLB != m.TLB {
		n += m.ITLB.KernelEntries()
	}
	return n
}

// SetSegment loads segment register i with a VSID (the kernel does this
// on context switch). Loading a segment register remaps every address
// in that segment, so it advances the translation generation.
func (m *MMU) SetSegment(i int, v arch.VSID) {
	m.gen++
	m.segs[i] = v & arch.VSIDMask
}

// Segment returns segment register i.
func (m *MMU) Segment(i int) arch.VSID { return m.segs[i] }

// VPNFor computes the virtual page number the current segment registers
// assign to ea.
//
//mmutricks:noalloc
func (m *MMU) VPNFor(ea arch.EffectiveAddr) arch.VPN {
	return arch.VPNOf(m.segs[ea.SegIndex()], ea)
}

// Result is the outcome of one translation. It has four top-level
// fields so the compiler keeps it in registers (a larger struct is
// copied through the stack on every Translate); the facts about a
// successful translation share the embedded Hit.
type Result struct {
	PA arch.PhysAddr
	Hit
	Fault Fault
	// VPN is the virtual page that faulted (valid when Fault != FaultNone).
	VPN arch.VPN
}

// Hit describes how a successful translation was satisfied.
type Hit struct {
	Inhibited bool
	// ViaBAT reports the translation was satisfied by a BAT register.
	ViaBAT bool
	// Way is the TLB way holding the translation (TLB-sourced results).
	Way int8
}

// perPTECost is the fixed pipeline cost of examining one PTE during the
// 604's hardware search, on top of the memory-system cost of the access
// itself. 16 accesses x ~7 cycles plus memory time approximates the
// paper's measured up-to-120-cycle hardware reload.
const perPTECost = 7

// Translate resolves one effective address, charging translation costs
// to the ledger. instr selects the instruction-side BATs. A BAT hit and
// a TLB hit are free (the compares happen in the pipeline); misses cost
// what the paper measured.
//
//mmutricks:noalloc
func (m *MMU) Translate(ea arch.EffectiveAddr, instr bool) Result {
	if m.inj != nil {
		m.injectTranslate(ea, instr)
	}
	bats := &m.DBAT
	if instr {
		bats = &m.IBAT
	}
	if pa, inh, ok := bats.Lookup(ea); ok {
		m.mon.BATHits++
		return Result{PA: pa, Hit: Hit{Inhibited: inh, ViaBAT: true}}
	}
	vpn := m.VPNFor(ea)
	if r, ok := m.TLBHit(ea, vpn, instr); ok {
		return r
	}

	if m.Model.Kind == clock.CPU603 {
		// The 603 interrupts to software immediately; the handler-entry
		// cost is charged by the kernel's handler, which also decides
		// what data structure to search (§6). The handler's soft-reload
		// event carries the cost; this one marks the miss itself.
		m.trc.TLBMiss(vpn.VSID(), ea, 0)
		return Result{Fault: FaultTLBMiss, VPN: vpn}
	}

	// 604: hardware hash-table search.
	m.mon.HardwareWalks++
	walkStart := m.led.Now()
	pte, primary, accesses := m.HTAB.Search(vpn, m.bus)
	m.led.Charge(clock.Cycles(accesses * perPTECost))
	if pte != nil {
		walkCost := m.led.Now() - walkStart
		if primary {
			m.trc.HTABHitPrimary(vpn.VSID(), ea, walkCost)
		} else {
			m.trc.HTABHitSecondary(vpn.VSID(), ea, walkCost)
		}
		m.trc.TLBMiss(vpn.VSID(), ea, walkCost)
		pte.R = true
		way, evicted := m.TLBFor(instr).insert(vpn, pte.RPN, pte.CacheInhibited, ea.IsKernel())
		if evicted {
			m.trc.TLBEvict(vpn.VSID(), ea)
		}
		m.trc.TLBInsert(vpn.VSID(), ea)
		// The walk ran in hardware, under whatever phase the faulting
		// access belongs to; an exact transfer moves its cycles to
		// tlb-miss without a span (no defer on the noalloc path).
		m.ph.Attribute(telemetry.PhaseTLBMiss, walkCost)
		return Result{PA: pte.RPN.Addr() + arch.PhysAddr(ea.Offset()), Hit: Hit{Inhibited: pte.CacheInhibited, Way: way}}
	}
	// Neither bucket matched: hash-table miss interrupt (>= 91 cycles
	// just to invoke the handler, §5).
	// HashMissFaults counts here, at the raise; the kernel handler's
	// HashMissHandled event follows once its cost is known.
	m.led.Charge(clock.Cycles(m.Model.HashMissInterrupt))
	m.trc.HashMissRaised(vpn.VSID(), ea, m.led.Now()-walkStart)
	m.trc.TLBMiss(vpn.VSID(), ea, m.led.Now()-walkStart)
	// Failed walk plus the interrupt-invocation cost, transferred like
	// the hit path above; the software handler's span covers the rest.
	m.ph.Attribute(telemetry.PhaseTLBMiss, m.led.Now()-walkStart)
	return Result{Fault: FaultHashMiss, VPN: vpn}
}

// TLBHit is Translate's TLB stage alone, for a caller that already
// knows ea misses the BATs and that vpn is ea's current virtual page
// (the translation generation is unchanged since a Translate computed
// it). A hit has Translate's side effects (the hit count, the way
// becoming MRU); a miss has none.
//
//mmutricks:noalloc
func (m *MMU) TLBHit(ea arch.EffectiveAddr, vpn arch.VPN, instr bool) (Result, bool) {
	e, way := m.TLBFor(instr).lookup(vpn)
	if e == nil {
		return Result{}, false
	}
	m.mon.TLBHits++
	return Result{PA: e.rpn.Addr() + arch.PhysAddr(ea.Offset()), Hit: Hit{Inhibited: e.inhibited, Way: way}}, true
}

// Probe translates without charging cycles or counters — for
// assertions and tools. It reports ok=false if the address has no
// hardware translation right now.
func (m *MMU) Probe(ea arch.EffectiveAddr, instr bool) (arch.PhysAddr, bool) {
	bats := &m.DBAT
	if instr {
		bats = &m.IBAT
	}
	if pa, _, ok := bats.Lookup(ea); ok {
		return pa, true
	}
	vpn := m.VPNFor(ea)
	if rpn, ok := m.TLBFor(instr).Peek(vpn); ok {
		return rpn.Addr() + arch.PhysAddr(ea.Offset()), true
	}
	if pte, _, _ := m.HTAB.Search(vpn, nil); pte != nil {
		return pte.RPN.Addr() + arch.PhysAddr(ea.Offset()), true
	}
	return 0, false
}
