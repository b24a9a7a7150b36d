package ppc

// Fault-injection mechanisms for the translation resources. The
// faultinject.Injector decides when and what; the methods here apply
// the corruption to TLB/HTAB/BAT state, exactly the way the real
// hazards arise (a parity flip in a TLB frame number, an ECC flip in
// hash-table memory, a zombie PTE coming back valid, a BAT register
// losing a physical-base bit). Everything is reachable from the
// annotated Translate hot path, so it is all //mmutricks:noalloc, and
// the whole layer is behind one nil check in Translate.

import (
	"mmutricks/internal/arch"
	"mmutricks/internal/faultinject"
)

// SetInjector attaches a fault injector to the MMU (nil detaches).
func (m *MMU) SetInjector(inj *faultinject.Injector) { m.inj = inj }

// injectTranslate is the SiteTranslate injection point, polled once
// per translation.
//
//mmutricks:noalloc
func (m *MMU) injectTranslate(ea arch.EffectiveAddr, instr bool) {
	n := m.inj.Fire(faultinject.SiteTranslate)
	for i := 0; i < n; i++ {
		kind, ok := m.inj.PickKind(faultinject.SiteTranslate)
		if !ok {
			return
		}
		m.applyFault(kind, ea, instr)
	}
}

// applyFault lands one fault. Victims always avoid the translation in
// flight (its TLB set, its HTAB buckets), so the poison cannot be
// consumed before its machine check is delivered at the end of the
// current kernel access; anything else the poison could touch is
// repaired by then. Faults that find no eligible victim, or no queue
// space for their error report, are Skipped — corruption is never
// applied unreported.
//
//mmutricks:noalloc
func (m *MMU) applyFault(kind faultinject.Kind, ea arch.EffectiveAddr, instr bool) {
	inj := m.inj
	vpn := m.VPNFor(ea)
	switch kind {
	case faultinject.TLBFlip:
		if inj.QueueFull() {
			inj.NoteSkipped(kind)
			return
		}
		victim, ok := m.TLBFor(instr).CorruptEntry(inj.Rand(), vpn)
		if !ok {
			inj.NoteSkipped(kind)
			return
		}
		inj.Push(faultinject.Pending{Cause: faultinject.CauseTLBParity, VPN: victim})
		inj.NoteApplied(kind)

	case faultinject.TLBSpurious:
		// Benign: the entry refaults and reloads from the page table.
		// No machine check, no repair expected.
		if _, ok := m.TLBFor(instr).SpuriousInvalidate(inj.Rand()); ok {
			inj.NoteApplied(kind)
		} else {
			inj.NoteSkipped(kind)
		}

	case faultinject.HTABFlip:
		if inj.QueueFull() {
			inj.NoteSkipped(kind)
			return
		}
		g, s, victim, ok := m.HTAB.CorruptPTE(inj.Rand(), vpn)
		if !ok {
			inj.NoteSkipped(kind)
			return
		}
		inj.Push(faultinject.Pending{
			Cause: faultinject.CauseHTABECC,
			Addr:  m.HTAB.EntryAddr(g, s),
			VPN:   victim,
		})
		inj.NoteApplied(kind)

	case faultinject.HTABResurrect:
		if inj.QueueFull() {
			inj.NoteSkipped(kind)
			return
		}
		g, s, victim, ok := m.HTAB.ResurrectPTE(inj.Rand(), vpn)
		if !ok {
			inj.NoteSkipped(kind)
			return
		}
		inj.Push(faultinject.Pending{
			Cause: faultinject.CauseHTABECC,
			Addr:  m.HTAB.EntryAddr(g, s),
			VPN:   victim,
		})
		inj.NoteApplied(kind)

	case faultinject.BATFlip:
		if inj.QueueFull() {
			inj.NoteSkipped(kind)
			return
		}
		// Try the data side first, then the instruction side. The
		// pending record's Addr carries the register index and PID the
		// side (0 = DBAT, 1 = IBAT) — informational only: the repair
		// reprograms every register from the kernel's canonical map.
		if idx, ok := m.DBAT.CorruptPhys(inj.Rand()); ok {
			inj.Push(faultinject.Pending{Cause: faultinject.CauseBATParity, Addr: arch.PhysAddr(idx)})
			inj.NoteApplied(kind)
			return
		}
		if idx, ok := m.IBAT.CorruptPhys(inj.Rand()); ok {
			inj.Push(faultinject.Pending{Cause: faultinject.CauseBATParity, Addr: arch.PhysAddr(idx), PID: 1})
			inj.NoteApplied(kind)
			return
		}
		inj.NoteSkipped(kind)

	default:
		inj.NoteSkipped(kind)
	}
}

// CorruptEntry flips the low frame-number bit of an arbitrary valid
// entry — a TLB parity fault. The scan starts at a seeded set and
// skips avoid's set, so the translation in flight is never the victim.
// It returns the poisoned entry's virtual page.
//
//mmutricks:noalloc
func (t *TLB) CorruptEntry(rnd uint64, avoid arch.VPN) (victim arch.VPN, ok bool) {
	start := uint32(rnd) & t.setMask
	avoidSet := avoid.PageIndex() & t.setMask
	for i := 0; i <= int(t.setMask); i++ {
		si := (start + uint32(i)) & t.setMask
		if si == avoidSet {
			continue
		}
		for w := range t.sets[si] {
			if e := &t.sets[si][w]; e.key != 0 {
				e.rpn ^= 1
				return e.vpn(), true
			}
		}
	}
	return 0, false
}

// SpuriousInvalidate drops an arbitrary valid entry for no reason —
// the stale-translation hazard lazy flushing narrows but cannot
// remove. Benign by construction: the next access refaults and
// reloads.
//
//mmutricks:noalloc
func (t *TLB) SpuriousInvalidate(rnd uint64) (victim arch.VPN, ok bool) {
	start := uint32(rnd) & t.setMask
	for i := 0; i <= int(t.setMask); i++ {
		s := &t.sets[(start+uint32(i))&t.setMask]
		for w := range s {
			if s[w].key != 0 {
				vpn := s[w].vpn()
				s.invalidate(int8(w))
				return vpn, true
			}
		}
	}
	return 0, false
}

// Peek reports the frame a valid entry currently translates vpn to,
// without touching recency state or counters — for the machine-check
// handler and tests.
//
//mmutricks:noalloc
func (t *TLB) Peek(vpn arch.VPN) (arch.PFN, bool) {
	if s, way := t.find(vpn); way >= 0 {
		return s[way].rpn, true
	}
	return 0, false
}

// CorruptPTE flips the low frame-number bit of an arbitrary valid PTE
// — an ECC fault in hash-table memory. The scan skips both buckets an
// insert or search for avoid would use. It returns the slot and the
// poisoned entry's virtual page.
//
//mmutricks:noalloc
func (h *HTAB) CorruptPTE(rnd uint64, avoid arch.VPN) (group, slot int, victim arch.VPN, ok bool) {
	pg := arch.HashPrimary(avoid, h.groups)
	sg := arch.HashSecondary(avoid, h.groups)
	start := int(rnd % uint64(h.groups))
	for i := 0; i < h.groups; i++ {
		g := (start + i) % h.groups
		if g == pg || g == sg {
			continue
		}
		b := h.bucket(g)
		for s := range b {
			if e := &b[s]; e.Valid {
				e.RPN ^= 1
				return g, s, e.VPN(), true
			}
		}
	}
	return 0, 0, 0, false
}

// ResurrectPTE re-validates a stale, previously-used invalid slot with
// a flipped frame — the zombie-PTE hazard forced to happen. Never-used
// (all-zero) slots are not eligible.
//
//mmutricks:noalloc
func (h *HTAB) ResurrectPTE(rnd uint64, avoid arch.VPN) (group, slot int, victim arch.VPN, ok bool) {
	pg := arch.HashPrimary(avoid, h.groups)
	sg := arch.HashSecondary(avoid, h.groups)
	start := int(rnd % uint64(h.groups))
	for i := 0; i < h.groups; i++ {
		g := (start + i) % h.groups
		if g == pg || g == sg {
			continue
		}
		b := h.bucket(g)
		for s := range b {
			if e := &b[s]; !e.Valid && (e.RPN != 0 || e.VSID != 0 || e.API != 0) {
				e.Valid = true
				e.RPN ^= 1
				return g, s, e.VPN(), true
			}
		}
	}
	return 0, 0, 0, false
}

// SlotOf maps a physical address inside the table back to its slot —
// the machine-check handler resolves the failing address a CauseHTABECC
// report carries.
func (h *HTAB) SlotOf(pa arch.PhysAddr) (group, slot int, ok bool) {
	if pa < h.base {
		return 0, 0, false
	}
	off := int(pa-h.base) / arch.PTEBytes
	if off >= h.groups*arch.PTEGSize {
		return 0, 0, false
	}
	return off / arch.PTEGSize, off % arch.PTEGSize, true
}

// ReadSlot returns the PTE in a slot (valid or not).
func (h *HTAB) ReadSlot(group, slot int) arch.PTE { return h.bucket(group)[slot] }

// InvalidateSlot clears one slot's valid bit, charging the store
// through the bus like every other table write.
func (h *HTAB) InvalidateSlot(group, slot int, bus Bus) {
	if e := &h.bucket(group)[slot]; e.Valid {
		e.Valid = false
		h.touch(bus, group, slot, true)
	}
}

// CorruptPhys flips a physical-base bit of an arbitrary valid BAT
// register — a BAT parity fault. It writes the array directly,
// bypassing Set's alignment validation exactly the way a hardware flip
// would.
//
//mmutricks:noalloc
func (a *BATArray) CorruptPhys(rnd uint64) (idx int, ok bool) {
	start := int(rnd % NumBATs)
	for i := 0; i < NumBATs; i++ {
		j := (start + i) % NumBATs
		if a.entries[j].Valid {
			a.entries[j].Phys ^= BATMinBlock
			return j, true
		}
	}
	return -1, false
}
