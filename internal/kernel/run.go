package kernel

// The batched reference pipeline. Long kernel and user loops touch
// memory in equally-strided streaks that stay on one page for dozens
// of references; the scalar path pays a full MMU translation for every
// one of them. A Run translates once per page streak, through the same
// MMU walk a scalar reference takes (the TLB and hash table are the
// only translation caches), replays the per-reference translation side
// effects (hit counters, the TLB way becoming MRU) in closed form, and
// hands the streak to the machine's batch cache simulation. Anything
// that can deviate from the straight-line pattern — fault injection,
// COW/RO write checks — forces the scalar loop, so counters, trace
// emits, and cycle charges stay reference-for-reference identical to
// scalar execution. A run's loads and stores may mix: its store mask
// (cache.Stores) says which references store.

import (
	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
)

// Run describes a batch of references sharing class and width: Count
// references at EA, EA+Stride, ... Stride is in bytes and must be
// positive. Reference i stores iff Stores.At(i); instruction runs
// never store.
type Run struct {
	EA     arch.EffectiveAddr
	Count  int
	Stride int
	Class  cache.Class
	Stores cache.Stores
	Instr  bool
}

// replayHits performs the translation side effects of n further
// references to ea's page, which are guaranteed hits: the first
// reference of the streak just resolved, and cache traffic mutates no
// translation state. It mirrors the hardware priority — BAT compare
// first, then the TLB way.
func (k *Kernel) replayHits(ea arch.EffectiveAddr, instr bool, n int) {
	mmu := k.M.MMU
	bats := &mmu.DBAT
	if instr {
		bats = &mmu.IBAT
	}
	if _, _, ok := bats.Lookup(ea); ok {
		k.M.Mon.BATHits += uint64(n)
		return
	}
	// Repeated hits leave the TLB as one hit does (the way is MRU).
	if _, _, ok := mmu.TLBFor(instr).Lookup(mmu.VPNFor(ea)); !ok {
		panic("kernel: replayHits: translation vanished inside a run")
	}
	k.M.Mon.TLBHits += uint64(n)
}

// dataResident reports whether a data translation for ea is currently
// resident (BAT-covered or held in the DTLB) — i.e. whether a repeat
// reference is a guaranteed hit.
func (k *Kernel) dataResident(ea arch.EffectiveAddr) bool {
	mmu := k.M.MMU
	if _, _, ok := mmu.DBAT.Lookup(ea); ok {
		return true
	}
	_, ok := mmu.TLB.Peek(mmu.VPNFor(ea))
	return ok
}

// AccessRun performs r.Count accesses on behalf of task t, splitting
// the run at page boundaries: one translation (and fault resolution)
// per page streak, batched cache simulation for the streak's
// references, with the store mask rotated to each streak's starting
// reference. Fault injection and pending COW/RO write checks force
// the scalar loop — those paths must observe every reference.
func (k *Kernel) AccessRun(t *Task, r Run) {
	if r.Count <= 0 {
		return
	}
	if k.M.Inj != nil ||
		(r.Stores&cache.AllStores != 0 && t != nil && !r.EA.IsKernel() && (len(t.cowPages) > 0 || len(t.roPages) > 0)) {
		for i := 0; i < r.Count; i++ {
			k.access(t, r.EA+arch.EffectiveAddr(i*r.Stride), r.Instr, r.Class, r.Stores.At(i))
		}
		return
	}
	ea := r.EA
	n := r.Count
	st := r.Stores
	for n > 0 {
		off := int(ea.Offset())
		var cnt int
		if off+(n-1)*r.Stride < arch.PageSize {
			// Whole remainder fits this page — the common shape, no
			// division needed.
			cnt = n
		} else {
			cnt = (arch.PageSize-1-off)/r.Stride + 1
			if cnt > n {
				cnt = n
			}
		}
		pa, inh := k.translate(t, ea, r.Instr)
		if cnt > 1 {
			k.replayHits(ea, r.Instr, cnt-1)
		}
		if r.Instr {
			k.M.FetchRun(pa, cnt, r.Stride, r.Class, inh)
		} else {
			k.M.MemAccessRunMask(pa, cnt, r.Stride, r.Class, inh, st)
		}
		ea += arch.EffectiveAddr(cnt * r.Stride)
		n -= cnt
		st = st.From(cnt)
	}
}
