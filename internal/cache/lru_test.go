package cache

import (
	"fmt"
	"slices"
	"testing"

	"mmutricks/internal/arch"
)

// rankList decodes set's recency list: the way at each rank, least
// recently used first.
func rankList(c *Cache, set int) []int {
	l := c.sets[set][0].ord
	r := make([]int, Ways)
	for i := range r {
		r[i] = int(l >> (2 * i) & 3)
	}
	return r
}

// encodeRanks is rankList's inverse.
func encodeRanks(r []int) uint8 {
	var l uint8
	for i, w := range r {
		l |= uint8(w) << (2 * i)
	}
	return l
}

// permutations calls f with every ordering of ws.
func permutations(ws []int, f func([]int)) {
	if len(ws) <= 1 {
		f(ws)
		return
	}
	for i := range ws {
		ws[0], ws[i] = ws[i], ws[0]
		permutations(ws[1:], func([]int) { f(ws) })
		ws[0], ws[i] = ws[i], ws[0]
	}
}

// TestRecencyExhaustive puts a one-set cache into every state the
// recency invariant allows — every validity mask, and every
// recency order of the valid ways above the invalid ones in ascending
// way order — and holds a fill, a hit on each valid way and an
// invalidation of each valid way to a naive least-recent-first list:
// the fill replaces the first invalid way, else the least recent one,
// and every operation leaves the list the naive list predicts.
func TestRecencyExhaustive(t *testing.T) {
	c := New("x", Ways*32, Ways, 32)
	q := &c.sets[0]
	pa := func(w int) arch.PhysAddr { return arch.PhysAddr(w+1) << 5 }
	var states int
	for valid := 0; valid < 1<<Ways; valid++ {
		var invalid, resident []int
		for w := 0; w < Ways; w++ {
			if valid>>w&1 != 0 {
				resident = append(resident, w)
			} else {
				invalid = append(invalid, w)
			}
		}
		permutations(resident, func(perm []int) {
			states++
			naive := append(append([]int(nil), invalid...), perm...)
			load := func() {
				for w := range q {
					q[w].key, q[w].class, q[w].dirty = 0, 0, 0
					if valid>>w&1 != 0 {
						q[w].key = uint32(pa(w))>>5 | lineKeyValid
						q[w].class, q[w].dirty = uint8(w%int(numClasses)), uint8(w&1)
					}
				}
				q[0].ord = encodeRanks(naive)
			}
			expect := func(op string, w int, want []int) {
				t.Helper()
				if got := q[0].ord; got != encodeRanks(want) {
					t.Fatalf("valid %b, ranks %v: after the %s on way %d, ranks %v, want %v",
						valid, naive, op, w, rankList(c, 0), want)
				}
			}
			toTop := func(w int) []int {
				r := slices.DeleteFunc(slices.Clone(naive), func(x int) bool { return x == w })
				return append(r, w)
			}

			load()
			victim := -1
			for w := 0; w < Ways && victim < 0; w++ {
				if valid>>w&1 == 0 {
					victim = w
				}
			}
			if victim < 0 {
				victim = perm[0]
			}
			if hit, castout := c.Access(0x4000, ClassUser, false); hit || castout != (valid>>victim&1 != 0 && victim&1 != 0) {
				t.Fatalf("valid %b, ranks %v: fill = (hit %v, castout %v), victim way %d", valid, naive, hit, castout, victim)
			}
			if q[victim].key != 0x4000>>5|lineKeyValid {
				t.Fatalf("valid %b, ranks %v: fill missed way %d", valid, naive, victim)
			}
			expect("fill", victim, toTop(victim))

			for _, w := range perm {
				load()
				if hit, _ := c.Access(pa(w), ClassUser, false); !hit {
					t.Fatalf("valid %b: way %d does not hit", valid, w)
				}
				expect("hit", w, toTop(w))

				load()
				if !c.InvalidateLine(pa(w)) {
					t.Fatalf("valid %b: way %d not invalidated", valid, w)
				}
				inv := append(slices.Clone(invalid), w)
				slices.Sort(inv)
				rest := slices.DeleteFunc(slices.Clone(perm), func(x int) bool { return x == w })
				expect("invalidation", w, append(inv, rest...))
			}
		})
	}
	// Σ over validity masks of (valid ways)!.
	if states != 65 {
		t.Fatalf("%d states, want 65", states)
	}
}

// lruModel is a naive k-way true-LRU copy-back cache: each set is a
// recency list, most recent first, of at most k lines. It keeps no way
// positions or packed ranks, so it shares nothing with the Cache's
// victim choice and catches a replacement bug that the run/scalar
// parity tests cannot (both sides of those share the recency list).
type lruModel struct {
	ways  int
	sets  [][]modelLine
	stats Stats
}

type modelLine struct {
	tag   uint32
	class Class
	dirty bool
}

const oracleLineShift = 5

func newLRUModel(ways, sets int) *lruModel {
	return &lruModel{ways: ways, sets: make([][]modelLine, sets)}
}

func (m *lruModel) where(pa arch.PhysAddr) (set int, tag uint32) {
	tag = uint32(pa) >> oracleLineShift
	return int(tag % uint32(len(m.sets))), tag
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
	if len(l) == m.ways {
		v := l[m.ways-1]
		m.stats.EvictedBy[v.class][class]++
		if v.dirty {
			m.stats.Castouts[v.class]++
			castout = true
		}
		l = l[:m.ways-1]
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
// tags, classes and dirty bits — in the model's recency order as the
// set's own recency list gives it, with the invalid ways below them in
// ascending way order, and the two to agree on every statistic.
func sameAsModel(t *testing.T, c *Cache, m *lruModel) {
	t.Helper()
	if *c.Stats() != m.stats {
		t.Fatalf("stats diverge:\ncache %+v\nmodel %+v", *c.Stats(), m.stats)
	}
	for s := range m.sets {
		lines, ranks := &c.sets[s], rankList(c, s)
		want := m.sets[s]
		ninv := Ways - len(want)
		for i, w := range ranks {
			l := lines[w]
			if i < ninv {
				if l.key&lineKeyValid != 0 || i > 0 && w <= ranks[i-1] {
					t.Fatalf("set %d ranks %v: rank %d is not the next invalid way (model holds %d lines)", s, ranks, i, len(want))
				}
				continue
			}
			x := want[Ways-1-i]
			if l.key != x.tag|lineKeyValid || Class(l.class) != x.class || (l.dirty != 0) != x.dirty {
				t.Fatalf("set %d ranks %v, rank %d (way %d): cache has key %#x class %v dirty %d, model %+v",
					s, ranks, i, w, l.key, Class(l.class), l.dirty, x)
			}
		}
	}
}

// oracleStrides mixes sub-line, line and multi-line strides, so runs
// take every 4-way path: one line, line runs, uniform sub-line runs of
// a stride that divides the line, and one Access per reference for
// every other stride. An operation's stride is entry (b>>4)%9 of its store byte b:
// 16, the last, is entry 8 alone.
var oracleStrides = []int{4, 8, 12, 20, 32, 64, 96, 256, 16}

// oracleGeoms are FuzzLRUOracle's caches: 4-way, of 8, 4, 2 and 1
// sets, holding a half, a quarter, an eighth and a sixteenth of the
// 2 KB working set. The one-set cache has no index bits: every line
// competes for the same four ways.
var oracleGeoms = []struct{ ways, sets int }{{4, 8}, {4, 4}, {4, 2}, {4, 1}}

// FuzzLRUOracle drives small caches of every size in oracleGeoms
// with one stream of random Access, AccessRunCountMask (ops 1 and 2),
// InvalidateLine and CorruptCleanLine operations, six bytes each, and
// checks every result and the whole cache state after every operation
// against lruModel.
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
		2, 0x03, 0x06, 0x30, 3, 0x25, // sub-line per-reference count run
		1, 0x02, 0x02, 0x2a, 5, 0x13, // sub-line per-reference run
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
	f.Add([]byte{
		0, 0x00, 0x00, 0, 0, 0, // fill set 0 of the 4-way cache
		0, 0x01, 0x00, 0, 0, 0,
		0, 0x02, 0x00, 0, 0, 0,
		0, 0x03, 0x00, 0, 0, 0,
		2, 0x01, 0x00, 1, 0, 0x70, // aligned count run hits reorder the set
		0, 0x04, 0x00, 0, 1, 1, // ... and choose this fill's victim
		1, 0x03, 0x00, 1, 0, 0x7f, // aligned run, store hits
		0, 0x05, 0x00, 0, 2, 0,
	})
	f.Add([]byte{
		2, 0x00, 0x00, 7, 0, 0x4a, // lines 0-7: user loads, odd lines stored
		2, 0x01, 0x00, 7, 2, 0x40, // lines 8-15: kernel-data loads
		2, 0x02, 0x00, 7, 3, 0x40, // lines 16-23: page-table loads
		1, 0x03, 0x00, 7, 4, 0x4f, // lines 24-31: all-store run fills the 4-way sets
		3, 0x01, 0x20, 0, 0, 0, // invalidate line 9 (way 1 of set 1)
		3, 0x00, 0x60, 0, 0, 0, // invalidate line 3 (way 0 of set 3)
		1, 0x00, 0x00, 0x0f, 5, 0x4f, // all-store run: clean hits, dirty hits, two invalid-way fills
		2, 0x04, 0x00, 0x0f, 6, 0x4f, // counted all-store run: clean page-table and dirty hash-table victims
		1, 0x06, 0x00, 0x0f, 1, 0x4f, // all-store run: dirty user and kernel-data victims
		2, 0x00, 0x00, 0x3f, 0, 0x5f, // counted all-store run, two-line stride, hits and misses
	})
	f.Add([]byte{
		0, 0x00, 0x00, 0, 0, 0, // set 0 of the 4-way cache: ways 0, 1, 2
		0, 0x01, 0x00, 0, 1, 1,
		0, 0x02, 0x00, 0, 2, 0,
		3, 0x01, 0x00, 0, 0, 0, // invalidate way 1: the first invalid way is 1, not 0
		0, 0x03, 0x00, 0, 3, 1, // scalar Access fills way 1
		1, 0x04, 0x04, 7, 4, 0x05, // unaligned run fills way 3 of set 0
		0, 0x00, 0x40, 0, 0, 0, // set 2: ways 0 and 1, then way 1 invalid
		0, 0x01, 0x40, 0, 1, 0,
		3, 0x01, 0x40, 0, 0, 0,
		2, 0x05, 0x44, 2, 5, 0x21, // unaligned counted run fills way 1 of set 2
		0, 0x06, 0x40, 0, 6, 1, // and a scalar fill takes way 2
	})
	f.Add([]byte{
		0, 0x00, 0x20, 0, 0, 1, // line 1 resident and dirty
		1, 0x00, 0x00, 0x0f, 6, 0x10, // PTE-stride load run over lines 0-3
		2, 0x00, 0x4c, 0x1f, 6, 0x1f, // counted unaligned PTE-stride store run, lines 2-10
		1, 0x01, 0x14, 0x0b, 2, 0x8f, // unaligned half-line store run, lines 8-14
		2, 0x00, 0x08, 0x3f, 0, 0x80, // counted unaligned half-line load run, 32 lines
		1, 0x04, 0x04, 0x2f, 5, 0x10, // unaligned PTE-stride load run evicts
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, g := range oracleGeoms {
			t.Run(fmt.Sprintf("%d-way-%d-sets", g.ways, g.sets), func(t *testing.T) {
				c := New("lru", g.sets*g.ways<<oracleLineShift, g.ways, 1<<oracleLineShift)
				runOracle(t, c, newLRUModel(g.ways, g.sets), ops)
			})
		}
	})
}

// runOracle applies FuzzLRUOracle's operation stream to c and m.
func runOracle(t *testing.T, c *Cache, m *lruModel, ops []byte) {
	for ; len(ops) >= 6; ops = ops[6:] {
		op, b := ops[0], ops[1:6]
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
		case 1, 2:
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
}

// checkCorruptClean requires CorruptCleanLine to name a resident clean
// line other than avoid's, from the first set in its scan order (from
// set rnd onward) that the model says holds one — or to find none when
// the model has none.
func checkCorruptClean(t *testing.T, c *Cache, m *lruModel, rnd uint64, avoid arch.PhysAddr) {
	t.Helper()
	victim, ok := c.CorruptCleanLine(rnd, avoid)
	_, avoidTag := m.where(avoid)
	for i := range m.sets {
		s := (int(rnd) + i) % len(m.sets)
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
