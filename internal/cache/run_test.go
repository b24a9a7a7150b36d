package cache

import (
	"math/rand"
	"reflect"
	"testing"

	"mmutricks/internal/arch"
)

// AccessRunCount is the harness's hottest function: it must agree with
// the scalar Access loop on every statistic and every line of cache
// state, for any alignment, stride, geometry, and store mask.
// scalarCount is the ground truth.
func scalarCount(c *Cache, pa arch.PhysAddr, n, stride int, class Class, st Stores) (nmiss, ncast int) {
	for i := 0; i < n; i++ {
		hit, castout := c.Access(pa+arch.PhysAddr(i*stride), class, st.At(i))
		if !hit {
			nmiss++
			if castout {
				ncast++
			}
		}
	}
	return nmiss, ncast
}

type runCase struct {
	name             string
	size, ways, line int
	pa               arch.PhysAddr
	n, stride        int
	st               Stores
}

var runCases = []runCase{
	{"aligned line stride", 16 << 10, 4, 32, 0x10000, 4096, 32, NoStores},
	{"aligned write stream", 16 << 10, 4, 32, 0x10000, 4096, 32, AllStores},
	{"aligned wide stride", 32 << 10, 4, 32, 0x8000, 1024, 128, AllStores},
	{"unaligned base", 16 << 10, 4, 32, 0x10004, 2048, 32, NoStores},
	{"sub-line stride", 16 << 10, 4, 32, 0x10000, 5000, 8, AllStores},
	{"sub-line unaligned", 32 << 10, 4, 32, 0x10006, 3000, 12, NoStores},
	{"single reference", 16 << 10, 4, 32, 0x2000, 1, 4, AllStores},
	{"2-way geometry", 16 << 10, 2, 32, 0x10000, 2048, 32, AllStores},
	{"8-way geometry", 16 << 10, 8, 32, 0x10000, 2048, 32, NoStores},
	{"mixed aligned", 16 << 10, 4, 32, 0x10000, 4099, 32, 0x8},
	{"mixed unaligned", 16 << 10, 4, 32, 0x10006, 2050, 32, 0x2},
	{"mixed sub-line", 16 << 10, 4, 32, 0x10000, 5001, 8, 0x8},
	{"mixed sub-line unaligned", 32 << 10, 4, 32, 0x10006, 3001, 12, 0x5},
	{"mixed word stride", 16 << 10, 4, 32, 0x10004, 4000, 4, 0x1},
	{"mixed 2-way", 16 << 10, 2, 32, 0x10000, 2049, 32, 0x8},
	{"mixed 8-way sub-line", 16 << 10, 8, 32, 0x10002, 3000, 20, 0x6},
}

// warmTwins gives both caches the same warm, partly dirty contents, so
// eviction and castout paths run.
func warmTwins(tc runCase) (run, scalar *Cache) {
	run = New("run", tc.size, tc.ways, tc.line)
	scalar = New("scalar", tc.size, tc.ways, tc.line)
	for _, c := range []*Cache{run, scalar} {
		for i := 0; i < 4096; i++ {
			c.Access(arch.PhysAddr(i*tc.line), ClassKernelData, i%3 == 0)
		}
	}
	return run, scalar
}

// sameState requires bit-identical statistics, recency lists, and
// lines.
func sameState(t *testing.T, cr, cs *Cache) {
	t.Helper()
	if *cr.Stats() != *cs.Stats() {
		t.Fatalf("stats diverge:\nrun    %+v\nscalar %+v", *cr.Stats(), *cs.Stats())
	}
	for s := 0; s < cr.Sets(); s++ {
		if cr.list(s) != cs.list(s) {
			t.Fatalf("set %d recency diverges: run %v, scalar %v", s, rankList(cr, s), rankList(cs, s))
		}
	}
	for i := range cr.lines {
		if cr.lines[i] != cs.lines[i] {
			t.Fatalf("line %d diverges: run %+v, scalar %+v", i, cr.lines[i], cs.lines[i])
		}
	}
}

func TestAccessRunCountMatchesScalar(t *testing.T) {
	for _, tc := range runCases {
		t.Run(tc.name, func(t *testing.T) {
			cr, cs := warmTwins(tc)
			rm, rc := cr.AccessRunCountMask(tc.pa, tc.n, tc.stride, ClassUser, tc.st)
			sm, sc := scalarCount(cs, tc.pa, tc.n, tc.stride, ClassUser, tc.st)
			if rm != sm || rc != sc {
				t.Fatalf("counts diverge: run (%d misses, %d castouts), scalar (%d, %d)", rm, rc, sm, sc)
			}
			sameState(t, cr, cs)
		})
	}
}

// AccessRun and AccessNoAllocRun (the tracer/L2 and locked routes) must
// record each miss at the reference the scalar loop misses on.
func TestAccessRunMissesMatchScalar(t *testing.T) {
	for _, tc := range runCases {
		t.Run(tc.name, func(t *testing.T) {
			misses := make([]MissRef, tc.n)
			var want []MissRef

			cr, cs := warmTwins(tc)
			got := misses[:cr.AccessRun(tc.pa, tc.n, tc.stride, ClassUser, tc.st, misses)]
			for i := 0; i < tc.n; i++ {
				if hit, castout := cs.Access(tc.pa+arch.PhysAddr(i*tc.stride), ClassUser, tc.st.At(i)); !hit {
					want = append(want, MissRef{Index: int32(i), Castout: castout})
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("AccessRun misses diverge: run %d, scalar %d", len(got), len(want))
			}
			sameState(t, cr, cs)

			cr, cs = warmTwins(tc)
			got = misses[:cr.AccessNoAllocRun(tc.pa, tc.n, tc.stride, ClassUser, tc.st, misses)]
			want = want[:0]
			for i := 0; i < tc.n; i++ {
				if !cs.AccessNoAlloc(tc.pa+arch.PhysAddr(i*tc.stride), ClassUser, tc.st.At(i)) {
					want = append(want, MissRef{Index: int32(i)})
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("AccessNoAllocRun misses diverge: run %d, scalar %d", len(got), len(want))
			}
			sameState(t, cr, cs)
		})
	}
}

func TestStoresRotation(t *testing.T) {
	for st := Stores(0); st <= AllStores; st++ {
		for from := 0; from < 9; from++ {
			for i := 0; i < 12; i++ {
				if got, want := st.From(from).At(i), st.At(from+i); got != want {
					t.Fatalf("Stores(%#x).From(%d).At(%d) = %v, want %v", st, from, i, got, want)
				}
			}
		}
	}
	if StoresOf(true) != AllStores || StoresOf(false) != NoStores {
		t.Fatal("StoresOf is not the uniform mask")
	}
}

// FuzzAccessRunCountParity drives random batched runs over random
// geometries and store masks, checking that batched counts never
// deviate from the scalar loop and the final cache state is
// bit-identical.
func FuzzAccessRunCountParity(f *testing.F) {
	f.Add(uint8(0), uint32(0x10000), uint16(512), uint8(32), uint8(AllStores))
	f.Add(uint8(1), uint32(0x8004), uint16(3000), uint8(12), uint8(NoStores))
	f.Add(uint8(2), uint32(0x10000), uint16(1030), uint8(32), uint8(0x8))
	f.Add(uint8(1), uint32(0x10006), uint16(2000), uint8(4), uint8(0x5))
	f.Fuzz(func(t *testing.T, geom uint8, pa uint32, n uint16, stride, stores uint8) {
		ways := []int{2, 4, 8}[geom%3]
		step := int(stride)%256 + 1
		st := Stores(stores)
		cr := New("run", 16<<10, ways, 32)
		cs := New("scalar", 16<<10, ways, 32)
		rm, rc := cr.AccessRunCountMask(arch.PhysAddr(pa), int(n), step, ClassUser, st)
		sm, sc := scalarCount(cs, arch.PhysAddr(pa), int(n), step, ClassUser, st)
		if rm != sm || rc != sc {
			t.Fatalf("counts diverge: run (%d, %d), scalar (%d, %d)", rm, rc, sm, sc)
		}
		if cr.DirtyLines() != cs.DirtyLines() {
			t.Fatalf("dirty lines diverge: run %d, scalar %d", cr.DirtyLines(), cs.DirtyLines())
		}
		sameState(t, cr, cs)
	})
}

// The batch paths must stay allocation-free: they run inside the
// noalloc-proved simulation core, and a hidden allocation would also
// wreck the throughput the batching exists for.
func TestAccessRunZeroAllocs(t *testing.T) {
	c := New("d", 32<<10, 4, 32)
	var missBuf [256]MissRef
	var pa arch.PhysAddr
	if n := testing.AllocsPerRun(200, func() {
		c.AccessRun(pa, 128, 32, ClassUser, AllStores, missBuf[:])
		c.AccessRun(pa+2048, 64, 32, ClassUser, 0x8, missBuf[:])
		c.AccessRunCount(pa, 128, 32, ClassUser, true)
		c.AccessRunCount(pa+4, 100, 12, ClassUser, false)
		c.AccessRunCountMask(pa+8, 128, 32, ClassUser, 0x8)
		pa += 4096
	}); n != 0 {
		t.Fatalf("batched access paths allocate %.1f times per op, want 0", n)
	}
}

// BenchmarkAccessRun vs BenchmarkAccessScalar measures the batching
// win at the cache layer: one call per 128-reference streak against
// 128 scalar calls, on the miss-heavy streaming pattern the harness
// spends most of its time in (page clears, copies, sweeps).
func BenchmarkAccessRun(b *testing.B) {
	c := New("d", 16<<10, 4, 32)
	var pa arch.PhysAddr
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.AccessRunCount(pa, 128, 32, ClassUser, true)
		pa += 4096
	}
}

// BenchmarkAccessRunScattered is BenchmarkAccessRun with a victim way
// that varies: whole pages are cleared in a seeded random order over a
// 64-page working set (16x the cache), and each clear is followed by a
// short load run re-touching part of one of the three pages cleared
// before it, which reorders the LRU stamps of the sets it lands in.
// BenchmarkAccessRun's fixed stride repeats its victims with a fixed
// period, so there every branch predicts perfectly.
func BenchmarkAccessRunScattered(b *testing.B) {
	c := New("d", 16<<10, 4, 32)
	rng := rand.New(rand.NewSource(1))
	const nops = 1024
	var page, hot [nops]arch.PhysAddr
	for i := range page {
		page[i] = arch.PhysAddr(rng.Intn(64)) << 12
		hot[i] = page[(i+nops-1-rng.Intn(3))%nops] + arch.PhysAddr(rng.Intn(128-16))<<5
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % nops
		c.AccessRunCount(page[j], 128, 32, ClassUser, true)
		c.AccessRunCount(hot[j], 16, 32, ClassUser, false)
	}
}

// BenchmarkAccessRunResident is the hit-dominated counterpart, the
// shape of mm-churn's user data (which hits 84–92% of the time): runs
// of the user load/store mix (one store per four references) over
// whole pages of a four-page working set that fills the cache exactly.
// The lines are loaded in a seeded random order, so each page sits in
// a different way from set to set and the hit way varies along a run.
func BenchmarkAccessRunResident(b *testing.B) {
	c := New("d", 16<<10, 4, 32)
	rng := rand.New(rand.NewSource(1))
	const pages = 4
	for _, i := range rng.Perm(pages << 7) {
		c.Access(arch.PhysAddr(i)<<5, ClassUser, false)
	}
	var page [1024]arch.PhysAddr
	for i := range page {
		page[i] = arch.PhysAddr(rng.Intn(pages)) << 12
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AccessRunCountMask(page[i%len(page)], 128, 32, ClassUser, 0x8)
	}
	if m := c.Stats().TotalMisses(); m != pages<<7 {
		b.Fatalf("%d misses, want only the %d loading ones", m, pages<<7)
	}
}

func BenchmarkAccessScalar(b *testing.B) {
	c := New("d", 16<<10, 4, 32)
	var pa arch.PhysAddr
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 128; j++ {
			c.Access(pa+arch.PhysAddr(j*32), ClassUser, true)
		}
		pa += 4096
	}
}
