package cache

import (
	"sort"
	"testing"

	"mmutricks/internal/arch"
)

// TestVictim4Exhaustive holds victim4 to the scalar replacement rule —
// the first invalid way, else the way with the strictly smallest LRU
// stamp, the earliest way winning a tie — over every validity mask and
// every ordering of four stamps, ties included (each way's stamp takes
// one of four levels), at small stamps and at stamps spanning the
// whole 64-bit range.
func TestVictim4Exhaustive(t *testing.T) {
	scales := [][4]uint64{{1, 2, 3, 4}, {0, 1 << 32, 1 << 63, ^uint64(0)}}
	var q [4]line
	for _, levels := range scales {
		for valid := 0; valid < 16; valid++ {
			for order := 0; order < 256; order++ {
				for w := range q {
					q[w] = line{lru: levels[order>>(2*w)&3]}
					if valid>>w&1 != 0 {
						q[w].key = uint32(w) | lineKeyValid
					}
				}
				want, wantFull := -1, true
				for w := range q {
					if q[w].key&lineKeyValid == 0 {
						want, wantFull = w, false
						break
					}
					if want < 0 || q[w].lru < q[want].lru {
						want = w
					}
				}
				if vi, full := victim4(&q); vi != want || full != wantFull {
					t.Fatalf("valid %04b, stamps %d %d %d %d: victim4 = (%d, %v), want (%d, %v)",
						valid, q[0].lru, q[1].lru, q[2].lru, q[3].lru, vi, full, want, wantFull)
				}
			}
		}
	}
}

// lruModel is a naive 4-way true-LRU copy-back cache: each set is a
// recency list, most recent first, of at most four lines. It keeps no
// sequence stamps and no way positions, so it shares nothing with the
// Cache's victim choice and catches a victim bug that the run/scalar
// parity tests cannot (both sides of those call victim4).
type lruModel struct {
	sets  [][]modelLine
	stats Stats
}

type modelLine struct {
	tag   uint32
	class Class
	dirty bool
}

const (
	oracleLineShift = 5
	oracleSets      = 8
)

func (m *lruModel) where(pa arch.PhysAddr) (set int, tag uint32) {
	tag = uint32(pa) >> oracleLineShift
	return int(tag % oracleSets), tag
}

func (m *lruModel) access(pa arch.PhysAddr, class Class, write bool) (hit, castout bool) {
	m.stats.Accesses[class]++
	set, tag := m.where(pa)
	l := m.sets[set]
	for i, x := range l {
		if x.tag == tag {
			x.dirty = x.dirty || write
			copy(l[1:i+1], l[:i])
			l[0] = x
			return true, false
		}
	}
	m.stats.Misses[class]++
	m.stats.Fills[class]++
	if len(l) == 4 {
		v := l[3]
		m.stats.EvictedBy[v.class][class]++
		if v.dirty {
			m.stats.Castouts[v.class]++
			castout = true
		}
		l = l[:3]
	}
	m.sets[set] = append([]modelLine{{tag, class, write}}, l...)
	return false, castout
}

func (m *lruModel) invalidate(pa arch.PhysAddr) bool {
	set, tag := m.where(pa)
	l := m.sets[set]
	for i, x := range l {
		if x.tag == tag {
			m.sets[set] = append(l[:i], l[i+1:]...)
			return true
		}
	}
	return false
}

// sameAsModel requires the cache to hold exactly the model's lines —
// tags, classes and dirty bits — in the model's recency order, and the
// two to agree on every statistic.
func sameAsModel(t *testing.T, c *Cache, m *lruModel) {
	t.Helper()
	if *c.Stats() != m.stats {
		t.Fatalf("stats diverge:\ncache %+v\nmodel %+v", *c.Stats(), m.stats)
	}
	for s := range m.sets {
		var got []line
		for _, l := range c.setLines(s) {
			if l.key&lineKeyValid != 0 {
				got = append(got, l)
			}
		}
		sort.Slice(got, func(i, j int) bool { return got[i].lru > got[j].lru })
		want := m.sets[s]
		if len(got) != len(want) {
			t.Fatalf("set %d holds %d lines, model %d", s, len(got), len(want))
		}
		for i, l := range got {
			w := want[i]
			if l.key != w.tag|lineKeyValid || Class(l.class) != w.class || (l.dirty != 0) != w.dirty {
				t.Fatalf("set %d, recency rank %d: cache has tag %#x class %v dirty %d, model %+v",
					s, i, l.key&^lineKeyValid, Class(l.class), l.dirty, w)
			}
		}
	}
}

// oracleStrides mixes sub-line, line and multi-line strides, so runs
// take both the aligned loop and the grouping loop.
var oracleStrides = []int{4, 8, 12, 20, 32, 64, 96, 256}

// FuzzLRUOracle drives a small 4-way cache (8 sets, a working set
// several times its size) with random Access, AccessRun,
// AccessRunCountMask, InvalidateLine and CorruptCleanLine operations,
// six bytes each, and checks every result and the whole cache state
// after every operation against lruModel.
func FuzzLRUOracle(f *testing.F) {
	f.Add([]byte{
		0, 0x00, 0x00, 0, 0, 1, // store misses fill set 0
		0, 0x01, 0x00, 0, 1, 0,
		0, 0x02, 0x00, 0, 2, 1,
		0, 0x03, 0x00, 0, 3, 0,
		0, 0x01, 0x00, 0, 4, 0, // hit reorders the set
		0, 0x04, 0x00, 0, 5, 0, // full set: evict, cast out
		3, 0x02, 0x00, 0, 0, 0, // invalidate, then refill the hole
		0, 0x05, 0x00, 0, 6, 1,
		4, 0x00, 0x00, 3, 0, 0,
	})
	f.Add([]byte{
		1, 0x00, 0x00, 0x3f, 0, 0x4f, // aligned 64-line run, all stores
		1, 0x01, 0x04, 0x1f, 1, 0x08, // unaligned run, user mix
		2, 0x00, 0x40, 0x3f, 2, 0x78, // aligned count run, 256-byte stride
		2, 0x03, 0x06, 0x30, 3, 0x25, // sub-line grouped count run
		1, 0x02, 0x02, 0x2a, 5, 0x13, // sub-line grouped run
		3, 0x00, 0x20, 0, 0, 0,
		4, 0x05, 0x00, 0x07, 0, 0,
		0, 0x00, 0x20, 0, 4, 1,
	})
	f.Add([]byte{
		2, 0x00, 0x00, 0x3f, 0, 0x40, // load every line of a 2 KB span
		0, 0x00, 0x40, 0, 1, 0,
		0, 0x01, 0x60, 0, 2, 1,
		2, 0x04, 0x00, 0x3f, 3, 0x4a, // a second span evicts it, mixed stores
		2, 0x00, 0x00, 0x3f, 0, 0x4f,
		4, 0x00, 0x00, 0x01, 0, 0,
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		c := New("lru", oracleSets*4<<oracleLineShift, 4, 1<<oracleLineShift)
		m := &lruModel{sets: make([][]modelLine, oracleSets)}
		misses := make([]MissRef, 64)
		for len(ops) >= 6 {
			op, b := ops[0], ops[1:6]
			ops = ops[6:]
			pa := arch.PhysAddr(uint32(b[0])<<8|uint32(b[1])) & 0x7ff
			n := 1 + int(b[2]&0x3f)
			class := Class(b[3] % byte(numClasses))
			st := Stores(b[4])
			stride := oracleStrides[int(b[4]>>4)%len(oracleStrides)]
			switch op % 6 {
			case 0, 5:
				hit, castout := c.Access(pa, class, st.At(0))
				wantHit, wantCastout := m.access(pa, class, st.At(0))
				if hit != wantHit || castout != wantCastout {
					t.Fatalf("Access(%v): (hit %v, castout %v), model (%v, %v)", pa, hit, castout, wantHit, wantCastout)
				}
			case 1:
				got := misses[:c.AccessRun(pa, n, stride, class, st, misses)]
				var want []MissRef
				for i := 0; i < n; i++ {
					if hit, castout := m.access(pa+arch.PhysAddr(i*stride), class, st.At(i)); !hit {
						want = append(want, MissRef{Index: int32(i), Castout: castout})
					}
				}
				if len(got) != len(want) {
					t.Fatalf("AccessRun(%v, %d, %d): %d misses, model %d", pa, n, stride, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("AccessRun(%v, %d, %d): miss %d is %+v, model %+v", pa, n, stride, i, got[i], want[i])
					}
				}
			case 2:
				nmiss, ncast := c.AccessRunCountMask(pa, n, stride, class, st)
				var wantMiss, wantCast int
				for i := 0; i < n; i++ {
					if hit, castout := m.access(pa+arch.PhysAddr(i*stride), class, st.At(i)); !hit {
						wantMiss++
						if castout {
							wantCast++
						}
					}
				}
				if nmiss != wantMiss || ncast != wantCast {
					t.Fatalf("AccessRunCountMask(%v, %d, %d): (%d, %d), model (%d, %d)", pa, n, stride, nmiss, ncast, wantMiss, wantCast)
				}
			case 3:
				if got, want := c.InvalidateLine(pa), m.invalidate(pa); got != want {
					t.Fatalf("InvalidateLine(%v) = %v, model %v", pa, got, want)
				}
			case 4:
				checkCorruptClean(t, c, m, uint64(b[2]), pa)
			}
			sameAsModel(t, c, m)
		}
	})
}

// checkCorruptClean requires CorruptCleanLine to name a resident clean
// line other than avoid's, from the first set in its scan order (from
// set rnd onward) that the model says holds one — or to find none when
// the model has none.
func checkCorruptClean(t *testing.T, c *Cache, m *lruModel, rnd uint64, avoid arch.PhysAddr) {
	t.Helper()
	victim, ok := c.CorruptCleanLine(rnd, avoid)
	_, avoidTag := m.where(avoid)
	for i := 0; i < oracleSets; i++ {
		s := (int(rnd) + i) % oracleSets
		for _, l := range m.sets[s] {
			if l.dirty || l.tag == avoidTag {
				continue
			}
			if !ok {
				t.Fatalf("CorruptCleanLine(%d, %v) found nothing; set %d holds clean line %#x", rnd, avoid, s, l.tag)
			}
			vs, vtag := m.where(victim)
			if vs != s {
				t.Fatalf("CorruptCleanLine(%d, %v) = %v in set %d, want a line of set %d", rnd, avoid, victim, vs, s)
			}
			for _, x := range m.sets[s] {
				if x.tag == vtag && !x.dirty && x.tag != avoidTag {
					return
				}
			}
			t.Fatalf("CorruptCleanLine(%d, %v) = %v, not a resident clean line", rnd, avoid, victim)
		}
	}
	if ok {
		t.Fatalf("CorruptCleanLine(%d, %v) = %v, but the model holds no eligible line", rnd, avoid, victim)
	}
}
