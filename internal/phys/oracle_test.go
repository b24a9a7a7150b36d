package phys

import (
	"fmt"
	"testing"

	"mmutricks/internal/arch"
)

// scanMemory is the frame allocator as it was before the free and
// candidate lists: a free stack kept as a slice, with linear scans for
// the idle task's next candidate and for the frame a cleared-list hit
// removes. It is kept verbatim, stale cleared-list entries included,
// as the reference model for FuzzFrameAllocatorOracle.
type scanMemory struct {
	frames  int
	layout  Layout
	free    []arch.PFN
	inUse   []bool
	cleared []arch.PFN
	onList  []bool
	stats   Stats
}

func newScanMemory(m *Memory) *scanMemory {
	o := &scanMemory{
		frames: m.frames,
		layout: m.layout,
		inUse:  make([]bool, m.frames),
		onList: make([]bool, m.frames),
	}
	for f := o.frames - 1; f >= int(o.layout.FirstFree); f-- {
		o.free = append(o.free, arch.PFN(f))
	}
	for f := arch.PFN(0); f < o.layout.FirstFree; f++ {
		o.inUse[f] = true
	}
	return o
}

func (m *scanMemory) FreeFrames() int { return len(m.free) }

func (m *scanMemory) AllocFrame() (pfn arch.PFN, ok bool) {
	if len(m.free) == 0 {
		return 0, false
	}
	pfn = m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	m.inUse[pfn] = true
	m.stats.Allocated++
	return pfn, true
}

func (m *scanMemory) FreeFrame(pfn arch.PFN) {
	if int(pfn) >= m.frames || pfn < m.layout.FirstFree {
		panic(fmt.Sprintf("phys: free of reserved frame %#x", uint32(pfn)))
	}
	if !m.inUse[pfn] {
		panic(fmt.Sprintf("phys: double free of frame %#x", uint32(pfn)))
	}
	m.inUse[pfn] = false
	m.onList[pfn] = false
	m.free = append(m.free, pfn)
}

func (m *scanMemory) InUse(pfn arch.PFN) bool {
	return int(pfn) < m.frames && m.inUse[pfn]
}

func (m *scanMemory) PopClearedCandidate() (arch.PFN, bool) {
	for i := len(m.free) - 1; i >= 0; i-- {
		pfn := m.free[i]
		if !m.onList[pfn] {
			return pfn, true
		}
	}
	return 0, false
}

func (m *scanMemory) PushCleared(pfn arch.PFN) {
	if m.inUse[pfn] || m.onList[pfn] {
		return
	}
	m.onList[pfn] = true
	m.cleared = append(m.cleared, pfn)
	m.stats.IdleCleared++
}

func (m *scanMemory) ClearedLen() int { return len(m.cleared) }

func (m *scanMemory) GetFreePage() (pfn arch.PFN, cleared, ok bool) {
	for len(m.cleared) > 0 {
		pfn = m.cleared[len(m.cleared)-1]
		m.cleared = m.cleared[:len(m.cleared)-1]
		m.onList[pfn] = false
		if m.inUse[pfn] {
			continue // frame was grabbed by AllocFrame since clearing
		}
		// Remove it from the free stack.
		for i := len(m.free) - 1; i >= 0; i-- {
			if m.free[i] == pfn {
				m.free = append(m.free[:i], m.free[i+1:]...)
				break
			}
		}
		m.inUse[pfn] = true
		m.stats.Allocated++
		m.stats.ClearedHits++
		return pfn, true, true
	}
	m.stats.ClearedMisses++
	pfn, ok = m.AllocFrame()
	return pfn, false, ok
}

// Allocator operations, one per two-byte step of a fuzz input; the
// second byte is the operation's argument.
const (
	opAlloc       = iota // AllocFrame
	opFree               // FreeFrame of the held frame the argument picks
	opGetFreePage        // GetFreePage
	opIdleClear          // PopClearedCandidate, then PushCleared of what it returned
	opPushCleared        // bare PushCleared of the frame the argument names
	numOps
)

// oracleMemory is a 64-frame memory with a one-page hash table: 61
// free frames, few enough that random sequences drain and refill both
// the free pool and the cleared list.
func oracleMemory() *Memory { return NewWithHTAB(64*arch.PageSize, 2*arch.PageSize, 64) }

// FuzzFrameAllocatorOracle drives the linked-list allocator and the
// slice-and-scan reference model with the same operations and holds
// them equal after every step: each return value, FreeFrames,
// ClearedLen, Stats, the next idle candidate, and InUse of every frame.
func FuzzFrameAllocatorOracle(f *testing.F) {
	// The stale cleared-list entry: bank the top frame, let AllocFrame
	// take it, free it, and GetFreePage hands it out as pre-cleared.
	f.Add([]byte{
		opIdleClear, 0,
		opAlloc, 0,
		opFree, 0,
		opGetFreePage, 0,
		opGetFreePage, 0,
	})
	// A stale entry next to a fresh one for the same frame: the frame is
	// banked again after it comes back, so the list holds it twice.
	f.Add([]byte{
		opIdleClear, 0, opIdleClear, 0, opIdleClear, 0,
		opAlloc, 0, opAlloc, 0,
		opFree, 0,
		opIdleClear, 0,
		opGetFreePage, 0, opGetFreePage, 0, opGetFreePage, 0,
		opFree, 1, opGetFreePage, 0, opGetFreePage, 0,
	})
	// Bare pushes of frames in the middle of the free stack, of busy and
	// reserved frames, and of frames already banked, then a drain past
	// exhaustion and a refill.
	seed := []byte{
		opAlloc, 0, opAlloc, 0, opAlloc, 0, opAlloc, 0,
		opPushCleared, 10, opPushCleared, 40, opPushCleared, 10,
		opPushCleared, 3, opPushCleared, 0, opPushCleared, 63,
		opFree, 1, opFree, 2,
		opPushCleared, 4, opIdleClear, 0, opIdleClear, 0,
	}
	for i := 0; i < 70; i++ {
		seed = append(seed, opGetFreePage, 0)
	}
	for i := 0; i < 70; i++ {
		seed = append(seed, opFree, byte(i*7), opIdleClear, 0)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := oracleMemory()
		o := newScanMemory(m)
		var held []arch.PFN
		check := func(step int, what string) {
			t.Helper()
			if got, want := m.FreeFrames(), o.FreeFrames(); got != want {
				t.Fatalf("step %d (%s): FreeFrames %d, oracle %d", step, what, got, want)
			}
			if got, want := m.ClearedLen(), o.ClearedLen(); got != want {
				t.Fatalf("step %d (%s): ClearedLen %d, oracle %d", step, what, got, want)
			}
			if got, want := *m.Stats(), o.stats; got != want {
				t.Fatalf("step %d (%s): Stats %+v, oracle %+v", step, what, got, want)
			}
			gp, gok := m.PopClearedCandidate()
			wp, wok := o.PopClearedCandidate()
			if gp != wp || gok != wok {
				t.Fatalf("step %d (%s): candidate (%v, %v), oracle (%v, %v)", step, what, gp, gok, wp, wok)
			}
			for pfn := arch.PFN(0); int(pfn) <= m.Frames(); pfn++ {
				if got, want := m.InUse(pfn), o.InUse(pfn); got != want {
					t.Fatalf("step %d (%s): InUse(%v) %v, oracle %v", step, what, pfn, got, want)
				}
			}
		}
		check(-1, "new")
		for step := 0; len(ops) >= 2; step++ {
			op, arg := ops[0]%numOps, ops[1]
			ops = ops[2:]
			var what string
			switch op {
			case opAlloc:
				what = "AllocFrame"
				gp, gok := m.AllocFrame()
				wp, wok := o.AllocFrame()
				if gp != wp || gok != wok {
					t.Fatalf("step %d: AllocFrame (%v, %v), oracle (%v, %v)", step, gp, gok, wp, wok)
				}
				if gok {
					held = append(held, gp)
				}
			case opFree:
				what = "FreeFrame"
				if len(held) == 0 {
					continue
				}
				i := int(arg) % len(held)
				pfn := held[i]
				held = append(held[:i], held[i+1:]...)
				m.FreeFrame(pfn)
				o.FreeFrame(pfn)
			case opGetFreePage:
				what = "GetFreePage"
				gp, gc, gok := m.GetFreePage()
				wp, wc, wok := o.GetFreePage()
				if gp != wp || gc != wc || gok != wok {
					t.Fatalf("step %d: GetFreePage (%v, %v, %v), oracle (%v, %v, %v)", step, gp, gc, gok, wp, wc, wok)
				}
				if gok {
					held = append(held, gp)
				}
			case opIdleClear:
				what = "PopClearedCandidate+PushCleared"
				gp, gok := m.PopClearedCandidate()
				wp, wok := o.PopClearedCandidate()
				if gp != wp || gok != wok {
					t.Fatalf("step %d: PopClearedCandidate (%v, %v), oracle (%v, %v)", step, gp, gok, wp, wok)
				}
				if gok {
					m.PushCleared(gp)
					o.PushCleared(wp)
				}
			case opPushCleared:
				what = "PushCleared"
				pfn := arch.PFN(int(arg) % m.Frames())
				m.PushCleared(pfn)
				o.PushCleared(pfn)
			}
			check(step, what)
		}
	})
}
