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
	// inj is the attached fault injector; nil (the default) keeps the
	// injection points to a single never-taken branch.
	inj *faultinject.Injector

	segs [arch.NumSegments]arch.VSID
}

// NewMMU builds an MMU for the given CPU model. Its counters are the
// ones trc's event calls bump, and its phase ledger is trc's.
func NewMMU(model clock.CPUModel, htab *HTAB, led *clock.Ledger, bus Bus, trc *mmtrace.Tracer) *MMU {
	m := &MMU{
		Model: model,
		HTAB:  htab,
		led:   led,
		bus:   bus,
		mon:   trc.Counters(),
		trc:   trc,
	}
	if model.SplitTLB {
		m.TLB = NewTLB(model.TLBEntries/2, len(tlbSet{}))
		m.ITLB = NewTLB(model.TLBEntries/2, len(tlbSet{}))
	} else {
		m.TLB = NewTLB(model.TLBEntries, len(tlbSet{}))
		m.ITLB = m.TLB
	}
	return m
}

// TLBFor returns the lookaside buffer serving the given access side.
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
// on context switch).
func (m *MMU) SetSegment(i int, v arch.VSID) {
	m.segs[i] = v & arch.VSIDMask
}

// Segment returns segment register i.
func (m *MMU) Segment(i int) arch.VSID { return m.segs[i] }

// VPNFor computes the virtual page number the current segment registers
// assign to ea.
func (m *MMU) VPNFor(ea arch.EffectiveAddr) arch.VPN {
	return arch.VPNOf(m.segs[ea.SegIndex()], ea)
}

// Result is the outcome of one translation. It has four fields so the
// compiler keeps it in registers (a larger struct is copied through the
// stack on every Translate).
type Result struct {
	PA        arch.PhysAddr
	Inhibited bool
	Fault     Fault
	// VPN is the virtual page that faulted (valid when Fault != FaultNone).
	VPN arch.VPN
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
		return Result{PA: pa, Inhibited: inh}
	}
	vpn := m.VPNFor(ea)
	if rpn, inh, ok := m.TLBFor(instr).Lookup(vpn); ok {
		m.mon.TLBHits++
		return Result{PA: rpn.Addr() + arch.PhysAddr(ea.Offset()), Inhibited: inh}
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
		if m.TLBFor(instr).Insert(vpn, pte.RPN(), pte.Inhibited(), ea.IsKernel()) {
			m.trc.TLBEvict(vpn.VSID(), ea)
		}
		m.trc.TLBInsert(vpn.VSID(), ea)
		// The walk ran in hardware, under whatever phase the faulting
		// access belongs to; an exact transfer moves its cycles to
		// tlb-miss without a span (no defer on the hot path).
		m.trc.Phases().Attribute(telemetry.PhaseTLBMiss, walkCost)
		return Result{PA: pte.RPN().Addr() + arch.PhysAddr(ea.Offset()), Inhibited: pte.Inhibited()}
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
	m.trc.Phases().Attribute(telemetry.PhaseTLBMiss, m.led.Now()-walkStart)
	return Result{Fault: FaultHashMiss, VPN: vpn}
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
		return pte.RPN().Addr() + arch.PhysAddr(ea.Offset()), true
	}
	return 0, false
}
