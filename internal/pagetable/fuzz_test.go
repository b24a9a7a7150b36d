package pagetable

import (
	"testing"

	"mmutricks/internal/arch"
	"mmutricks/internal/phys"
)

// FuzzMapUnmap drives map/unmap/lookup sequences and checks that the
// tree's bookkeeping (entry counts, PTE-page lifecycle, frame returns)
// stays exact.
func FuzzMapUnmap(f *testing.F) {
	f.Add([]byte{1, 0, 0, 2, 0, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		mem := phys.New(1<<22, 4*arch.PageSize) // 4 MB arena
		free0 := mem.FreeFrames()
		tab, err := New(mem)
		if err != nil {
			t.Skip("oom")
		}
		live := map[uint32]bool{}
		for i := 0; i+2 < len(ops); i += 3 {
			pn := uint32(ops[i+1])<<8 | uint32(ops[i+2])
			ea := arch.EffectiveAddr(pn) << arch.PageShift
			switch ops[i] % 3 {
			case 0:
				if err := tab.Map(ea, arch.PFN(pn%256), false); err == nil {
					live[pn] = true
				}
			case 1:
				_, ok := tab.Unmap(ea)
				if ok != live[pn] {
					t.Fatalf("unmap(%v) = %v, tracker says %v", ea, ok, live[pn])
				}
				delete(live, pn)
			case 2:
				_, ok := tab.Lookup(ea)
				if ok != live[pn] {
					t.Fatalf("lookup(%v) = %v, tracker says %v", ea, ok, live[pn])
				}
			}
		}
		if tab.Count() != len(live) {
			t.Fatalf("Count() = %d, tracker has %d", tab.Count(), len(live))
		}
		tab.Destroy()
		if mem.FreeFrames() != free0 {
			t.Fatalf("frame leak: %d vs %d", mem.FreeFrames(), free0)
		}
	})
}

// FuzzEntryEncoding checks the packed page-table word: a present entry
// round-trips its frame and cache-inhibited bit, and flipping frame
// bits (the ECC fault CorruptRPN plants) moves only the frame. Run
// with `go test -fuzz=FuzzEntryEncoding`; the committed seeds cover
// each field at zero and at its maximum.
func FuzzEntryEncoding(f *testing.F) {
	f.Add(uint32(0), false, uint32(1))
	f.Add(uint32(0xFFFFF), true, uint32(0xFFFFF))
	f.Fuzz(func(t *testing.T, rpn32 uint32, inhibited bool, flip32 uint32) {
		rpn, flip := arch.PFN(rpn32&0xFFFFF), arch.PFN(flip32&0xFFFFF)
		e := NewEntry(rpn, inhibited)
		if !e.Present() || e.RPN() != rpn || e.Inhibited() != inhibited {
			t.Fatalf("entry %#x does not round-trip frame %#x inhibited %v", uint32(e), rpn, inhibited)
		}
		if Entry(0).Present() {
			t.Fatal("the zero entry is present")
		}
		mem := phys.New(1<<22, 4*arch.PageSize)
		tab, err := New(mem)
		if err != nil {
			t.Fatal(err)
		}
		const ea = arch.EffectiveAddr(0x1000_0000)
		if err := tab.Map(ea, rpn, inhibited); err != nil {
			t.Fatal(err)
		}
		if _, ok := tab.CorruptRPN(ea, flip); !ok {
			t.Fatal("CorruptRPN missed a present entry")
		}
		if got, ok := tab.Lookup(ea); !ok || got.RPN() != rpn^flip || got.Inhibited() != inhibited {
			t.Fatalf("after flipping %#x: entry %#x, want frame %#x inhibited %v", flip, uint32(got), rpn^flip, inhibited)
		}
	})
}
