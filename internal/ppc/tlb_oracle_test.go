package ppc

import (
	"fmt"
	"maps"
	"testing"

	"mmutricks/internal/arch"
)

// refTLB is the reference model for the TLB: the stamped design the
// stampless one replaced, kept verbatim apart from its names. Each
// entry carries a 64-bit LRU stamp from a sequence that advances on
// every Lookup and Insert, and the victim is the first invalid way,
// else the lowest stamp. It shares no code with TLB.
type refEntry struct {
	valid     bool
	vpn       arch.VPN
	rpn       arch.PFN
	inhibited bool
	kernel    bool
	lru       uint64
}

type refTLB struct {
	entries []refEntry
	ways    int
	setMask uint32
	seq     uint64
}

func newRefTLB(entries, ways int) *refTLB {
	nsets := entries / ways
	return &refTLB{entries: make([]refEntry, entries), ways: ways, setMask: uint32(nsets - 1)}
}

func (t *refTLB) set(vpn arch.VPN) []refEntry {
	return t.setLines(vpn.PageIndex() & t.setMask)
}

func (t *refTLB) setLines(si uint32) []refEntry {
	base := int(si) * t.ways
	return t.entries[base : base+t.ways]
}

func (t *refTLB) Lookup(vpn arch.VPN) (rpn arch.PFN, inhibited, ok bool) {
	set := t.set(vpn)
	t.seq++
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			set[i].lru = t.seq
			return set[i].rpn, set[i].inhibited, true
		}
	}
	return 0, false, false
}

func (t *refTLB) Insert(vpn arch.VPN, rpn arch.PFN, inhibited, kernel bool) (evictedValid bool) {
	set := t.set(vpn)
	t.seq++
	victim := 0
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			victim = i
			goto install
		}
	}
	for i := range set {
		if !set[i].valid {
			victim = i
			goto install
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	evictedValid = true
install:
	set[victim] = refEntry{valid: true, vpn: vpn, rpn: rpn, inhibited: inhibited, kernel: kernel, lru: t.seq}
	return evictedValid
}

func (t *refTLB) InvalidateVPN(vpn arch.VPN) {
	set := t.set(vpn)
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			set[i] = refEntry{}
		}
	}
}

func (t *refTLB) InvalidateAll() {
	for i := range t.entries {
		t.entries[i] = refEntry{}
	}
}

func (t *refTLB) Valid() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].valid {
			n++
		}
	}
	return n
}

func (t *refTLB) KernelEntries() int {
	n := 0
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].kernel {
			n++
		}
	}
	return n
}

func (t *refTLB) Snapshot() map[arch.VPN]arch.PFN {
	m := make(map[arch.VPN]arch.PFN)
	for i := range t.entries {
		if t.entries[i].valid {
			m[t.entries[i].vpn] = t.entries[i].rpn
		}
	}
	return m
}

func (t *refTLB) CorruptEntry(rnd uint64, avoid arch.VPN) (victim arch.VPN, ok bool) {
	start := uint32(rnd) & t.setMask
	avoidSet := avoid.PageIndex() & t.setMask
	for i := 0; i <= int(t.setMask); i++ {
		si := (start + uint32(i)) & t.setMask
		if si == avoidSet {
			continue
		}
		set := t.setLines(si)
		for j := range set {
			if set[j].valid {
				set[j].rpn ^= 1
				return set[j].vpn, true
			}
		}
	}
	return 0, false
}

func (t *refTLB) SpuriousInvalidate(rnd uint64) (victim arch.VPN, ok bool) {
	start := uint32(rnd) & t.setMask
	for i := 0; i <= int(t.setMask); i++ {
		set := t.setLines((start + uint32(i)) & t.setMask)
		for j := range set {
			if set[j].valid {
				vpn := set[j].vpn
				set[j] = refEntry{}
				return vpn, true
			}
		}
	}
	return 0, false
}

func (t *refTLB) Peek(vpn arch.VPN) (arch.PFN, bool) {
	set := t.set(vpn)
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			return set[i].rpn, true
		}
	}
	return 0, false
}

// oracleTLBEntries sizes the oracle's TLBs: 4 sets, so the 64 VPNs
// oracleVPN draws from collide 16 to a set.
const oracleTLBEntries = 8

// oracleVPN maps an operation byte onto one of 64 VPNs: 4 VSIDs times
// 16 page indexes.
func oracleVPN(b byte) arch.VPN {
	return arch.VPNOf(arch.VSID(b>>4&3), arch.EffectiveAddr(b&15)<<arch.PageShift)
}

// sameTLB fails t unless tlb and ref hold the same entries in the same
// ways and agree on every aggregate.
func sameTLB(t *testing.T, step string, tlb *TLB, ref *refTLB) {
	t.Helper()
	for si := range tlb.sets {
		for w := range tlb.sets[si] {
			e, r := &tlb.sets[si][w], &ref.entries[si*2+w]
			valid := e.key != 0
			if valid != r.valid || valid && (e.vpn() != r.vpn || e.rpn != r.rpn || e.inhibited != r.inhibited || e.kernel != r.kernel) {
				t.Fatalf("%s: set %d way %d holds {valid %v vpn %v rpn %v inh %v kernel %v}, reference {valid %v vpn %v rpn %v inh %v kernel %v}",
					step, si, w, valid, e.vpn(), e.rpn, e.inhibited, e.kernel, r.valid, r.vpn, r.rpn, r.inhibited, r.kernel)
			}
		}
	}
	if g, w := tlb.Valid(), ref.Valid(); g != w {
		t.Fatalf("%s: Valid %d, reference %d", step, g, w)
	}
	if g, w := tlb.KernelEntries(), ref.KernelEntries(); g != w {
		t.Fatalf("%s: KernelEntries %d, reference %d", step, g, w)
	}
	if g, w := tlb.Snapshot(), ref.Snapshot(); !maps.Equal(g, w) {
		t.Fatalf("%s: Snapshot %v, reference %v", step, g, w)
	}
}

// FuzzTLBOracle drives an 8-entry TLB and the stamped reference with
// one stream of operations, three bytes each (operation, VPN,
// argument), and compares every return value and the whole TLB state
// after every step.
func FuzzTLBOracle(f *testing.F) {
	// VPN bytes 0x00, 0x10, 0x20 and 0x30 share set 0 (page index 0).
	f.Add([]byte{
		1, 0x00, 0x01, // fill set 0: way 0
		1, 0x10, 0x02, // way 1
		0, 0x00, 0, // way 0 becomes MRU
		6, 0x00, 0, // invalidate way 0 of the full set
		1, 0x20, 0x03, // refill the hole
		1, 0x30, 0x05, // full again: the victim must follow recency
		0, 0x10, 0,
		1, 0x00, 0x06,
		4, 0x20, 0,
	})
	f.Add([]byte{
		1, 0x01, 0x02, // kernel-tagged entries in set 1
		1, 0x11, 0x12,
		2, 0x11, 0x13, // same-VPN reinsert updates in place
		3, 0x01, 1, // a hit
		3, 0x11, 0, // ... and another
		8, 0x01, 0x05, // corrupt an entry outside set 1
		9, 0x00, 0x02, // spurious invalidation
		1, 0x21, 0x00,
		5, 0x11, 0,
		7, 0x00, 0,
	})
	f.Add([]byte{
		1, 0x02, 0x01,
		1, 0x12, 0x01,
		1, 0x22, 0x01, // evicts the older of the two
		3, 0x12, 1,
		1, 0x32, 0x01,
		9, 0x02, 0x02, // spurious invalidation of set 2's first valid way
		1, 0x02, 0x01,
		0, 0x22, 0,
		1, 0x12, 0x01,
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		tlb, ref := NewTLB(oracleTLBEntries, 2), newRefTLB(oracleTLBEntries, 2)
		last := oracleVPN(0)
		for i := 0; len(ops) >= 3; i, ops = i+1, ops[3:] {
			op, vpn, arg := ops[0], oracleVPN(ops[1]), ops[2]
			step := fmt.Sprintf("step %d (op %d, vpn %v, arg %#x)", i, op%10, vpn, arg)
			switch op % 10 {
			case 0, 3:
				r1, i1, ok1 := tlb.Lookup(vpn)
				r2, i2, ok2 := ref.Lookup(vpn)
				if r1 != r2 || i1 != i2 || ok1 != ok2 {
					t.Fatalf("%s: Lookup (%v %v %v), reference (%v %v %v)", step, r1, i1, ok1, r2, i2, ok2)
				}
			case 1, 2:
				if op%10 == 2 {
					vpn = last
				}
				rpn, inh, kern := arch.PFN(arg>>2), arg&1 != 0, arg&2 != 0
				if g, w := tlb.Insert(vpn, rpn, inh, kern), ref.Insert(vpn, rpn, inh, kern); g != w {
					t.Fatalf("%s: Insert evicted %v, reference %v", step, g, w)
				}
				last = vpn
			case 4, 5:
				r1, ok1 := tlb.Peek(vpn)
				r2, ok2 := ref.Peek(vpn)
				if r1 != r2 || ok1 != ok2 {
					t.Fatalf("%s: Peek (%v %v), reference (%v %v)", step, r1, ok1, r2, ok2)
				}
			case 6:
				tlb.InvalidateVPN(vpn)
				ref.InvalidateVPN(vpn)
			case 7:
				if arg&7 == 0 { // rare: it empties the TLB
					tlb.InvalidateAll()
					ref.InvalidateAll()
				}
			case 8:
				v1, ok1 := tlb.CorruptEntry(uint64(arg), vpn)
				v2, ok2 := ref.CorruptEntry(uint64(arg), vpn)
				if v1 != v2 || ok1 != ok2 {
					t.Fatalf("%s: CorruptEntry (%v %v), reference (%v %v)", step, v1, ok1, v2, ok2)
				}
			case 9:
				v1, ok1 := tlb.SpuriousInvalidate(uint64(arg))
				v2, ok2 := ref.SpuriousInvalidate(uint64(arg))
				if v1 != v2 || ok1 != ok2 {
					t.Fatalf("%s: SpuriousInvalidate (%v %v), reference (%v %v)", step, v1, ok1, v2, ok2)
				}
			}
			sameTLB(t, step, tlb, ref)
		}
	})
}

// TestTLBRecencyExhaustive puts one set in every validity × MRU state
// (each way valid or not, either way most recently used) and from each
// applies every two-step continuation of fills, hits and
// invalidations, comparing against the stamped reference after every
// step.
func TestTLBRecencyExhaustive(t *testing.T) {
	vpn := func(v arch.VSID) arch.VPN { return arch.VPNOf(v, 0) } // all in set 0
	a, b := vpn(1), vpn(2)
	type op struct {
		name string
		tlb  func(*TLB)
		ref  func(*refTLB)
	}
	ops := []op{
		{"fill c", func(x *TLB) { x.Insert(vpn(3), 3, false, false) }, func(x *refTLB) { x.Insert(vpn(3), 3, false, false) }},
		{"fill d", func(x *TLB) { x.Insert(vpn(4), 4, false, true) }, func(x *refTLB) { x.Insert(vpn(4), 4, false, true) }},
		{"reinsert a", func(x *TLB) { x.Insert(a, 5, true, false) }, func(x *refTLB) { x.Insert(a, 5, true, false) }},
		{"hit a", func(x *TLB) { x.Lookup(a) }, func(x *refTLB) { x.Lookup(a) }},
		{"hit b", func(x *TLB) { x.Lookup(b) }, func(x *refTLB) { x.Lookup(b) }},
		{"invalidate a", func(x *TLB) { x.InvalidateVPN(a) }, func(x *refTLB) { x.InvalidateVPN(a) }},
		{"invalidate b", func(x *TLB) { x.InvalidateVPN(b) }, func(x *refTLB) { x.InvalidateVPN(b) }},
		{"spurious", func(x *TLB) { x.SpuriousInvalidate(0) }, func(x *refTLB) { x.SpuriousInvalidate(0) }},
	}
	for valid := 0; valid < 4; valid++ {
		for mru := 0; mru < 2; mru++ {
			state := fmt.Sprintf("valid ways %02b, MRU way %d", valid, mru)
			// Fill a into way 0 and b into way 1, touch the MRU way,
			// then drop the ways the state leaves invalid.
			mk := func() (*TLB, *refTLB) {
				tlb, ref := NewTLB(oracleTLBEntries, 2), newRefTLB(oracleTLBEntries, 2)
				for _, v := range []arch.VPN{a, b} {
					tlb.Insert(v, arch.PFN(v.VSID()), false, false)
					ref.Insert(v, arch.PFN(v.VSID()), false, false)
				}
				tlb.Lookup([]arch.VPN{a, b}[mru])
				ref.Lookup([]arch.VPN{a, b}[mru])
				for w, v := range []arch.VPN{a, b} {
					if valid&(1<<w) == 0 {
						tlb.InvalidateVPN(v)
						ref.InvalidateVPN(v)
					}
				}
				sameTLB(t, state, tlb, ref)
				return tlb, ref
			}
			for _, o1 := range ops {
				for _, o2 := range ops {
					tlb, ref := mk()
					o1.tlb(tlb)
					o1.ref(ref)
					sameTLB(t, state+", "+o1.name, tlb, ref)
					o2.tlb(tlb)
					o2.ref(ref)
					sameTLB(t, state+", "+o1.name+", "+o2.name, tlb, ref)
					// A last fill exposes any disagreement on the victim.
					tlb.Insert(vpn(9), 9, false, false)
					ref.Insert(vpn(9), 9, false, false)
					sameTLB(t, state+", "+o1.name+", "+o2.name+", fill", tlb, ref)
				}
			}
		}
	}
}
