package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mmutricks/internal/arch"
)

// AccessRunCount is the harness's hottest function: it must agree with
// the scalar Access loop on every statistic and every line of cache
// state, for any alignment, stride, cache size, and store mask.
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
	name       string
	size, line int
	pa         arch.PhysAddr
	n, stride  int
	st         Stores
}

var runCases = []runCase{
	{"aligned line stride", 16 << 10, 32, 0x10000, 4096, 32, NoStores},
	{"aligned write stream", 16 << 10, 32, 0x10000, 4096, 32, AllStores},
	{"aligned wide stride", 32 << 10, 32, 0x8000, 1024, 128, AllStores},
	{"unaligned base", 16 << 10, 32, 0x10004, 2048, 32, NoStores},
	{"sub-line stride", 16 << 10, 32, 0x10000, 5000, 8, AllStores},
	{"sub-line unaligned", 32 << 10, 32, 0x10006, 3000, 12, NoStores},
	{"single reference", 16 << 10, 32, 0x2000, 1, 4, AllStores},
	{"half-span write stream", 16 << 10, 32, 0x10000, 2048, 32, AllStores},
	{"half-span line stride", 16 << 10, 32, 0x10000, 2048, 32, NoStores},
	{"mixed aligned", 16 << 10, 32, 0x10000, 4099, 32, 0x8},
	{"mixed unaligned", 16 << 10, 32, 0x10006, 2050, 32, 0x2},
	{"mixed sub-line", 16 << 10, 32, 0x10000, 5001, 8, 0x8},
	{"mixed sub-line unaligned", 32 << 10, 32, 0x10006, 3001, 12, 0x5},
	{"mixed word stride", 16 << 10, 32, 0x10004, 4000, 4, 0x1},
	{"mixed half-span", 16 << 10, 32, 0x10000, 2049, 32, 0x8},
	{"mixed odd sub-line", 16 << 10, 32, 0x10002, 3000, 20, 0x6},
	{"descending line stride", 16 << 10, 32, 0x40000, 600, -32, 0x8},
	{"descending unaligned", 32 << 10, 32, 0x40014, 600, -64, AllStores},
	{"uniform PTE sweep", 32 << 10, 32, 0x10000, 64, 8, NoStores},
	{"uniform PTE stores unaligned", 16 << 10, 32, 0x10014, 50, 8, AllStores},
	{"uniform half-line unaligned", 16 << 10, 32, 0x1001c, 9, 16, NoStores},
	{"uniform half-line stores", 32 << 10, 32, 0x10010, 700, 16, AllStores},
}

// warmTwins gives both caches the same warm, partly dirty contents, so
// eviction and castout paths run.
func warmTwins(tc runCase) (run, scalar *Cache) {
	run = New("run", tc.size, Ways, tc.line)
	scalar = New("scalar", tc.size, Ways, tc.line)
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
	for s := range cr.sets {
		if cr.sets[s][0].ord != cs.sets[s][0].ord {
			t.Fatalf("set %d recency diverges: run %v, scalar %v", s, rankList(cr, s), rankList(cs, s))
		}
		if cr.sets[s] != cs.sets[s] {
			t.Fatalf("set %d diverges: run %+v, scalar %+v", s, cr.sets[s], cs.sets[s])
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
	// An all-store and a mixed aligned run (the page clear and the user
	// mix), each over a cache holding lines of every class, clean and
	// dirty: the run evicts
	// them all, so every victim histogram slot must reach the same
	// statistics as the scalar loop's one-at-a-time counting.
	for _, st := range []Stores{AllStores, 0x8} {
		cr, cs := New("run", 16<<10, 4, 32), New("scalar", 16<<10, 4, 32)
		for _, c := range []*Cache{cr, cs} {
			for i := 0; i < 512; i++ {
				c.Access(arch.PhysAddr(i*32), Class(i%int(numClasses)), i/int(numClasses)%2 == 1)
			}
		}
		rm, rc := cr.AccessRunCountMask(0x40000, 512, 32, ClassUser, st)
		sm, sc := scalarCount(cs, 0x40000, 512, 32, ClassUser, st)
		if rm != sm || rc != sc {
			t.Fatalf("stores %#x: counts diverge: run (%d misses, %d castouts), scalar (%d, %d)", st, rm, rc, sm, sc)
		}
		sameState(t, cr, cs)
		s := cr.Stats()
		for v := Class(0); v < numClasses; v++ {
			if d := s.Castouts[v]; d == 0 || s.EvictedBy[v][ClassUser] == d {
				t.Fatalf("stores %#x: %v victims: %d evicted, %d dirty; want clean and dirty ones", st, v, s.EvictedBy[v][ClassUser], d)
			}
		}
	}
}

// AccessNoAllocRun (the locked route) must miss on the references the
// scalar AccessNoAlloc loop misses on, and leave the same statistics
// and lines.
func TestAccessRunMissesMatchScalar(t *testing.T) {
	for _, tc := range runCases {
		t.Run(tc.name, func(t *testing.T) {
			cr, cs := warmTwins(tc)
			got := cr.AccessNoAllocRun(tc.pa, tc.n, tc.stride, ClassUser, tc.st)
			want := 0
			for i := 0; i < tc.n; i++ {
				if !cs.AccessNoAlloc(tc.pa+arch.PhysAddr(i*tc.stride), ClassUser, tc.st.At(i)) {
					want++
				}
			}
			if got != want {
				t.Fatalf("AccessNoAllocRun misses diverge: run %d, scalar %d", got, want)
			}
			sameState(t, cr, cs)
		})
	}
}

// runLines returns the line addresses a run touches, in order, each
// once: the lines whose residency decides where the run hits and
// misses.
func runLines(pa arch.PhysAddr, n, stride, line int) []arch.PhysAddr {
	var ls []arch.PhysAddr
	for i := 0; i < n; i++ {
		l := (pa + arch.PhysAddr(i*stride)) &^ arch.PhysAddr(line-1)
		if len(ls) == 0 || ls[len(ls)-1] != l {
			ls = append(ls, l)
		}
	}
	return ls
}

// fillAway fills c with lines of every class, every other one dirty,
// from a region no run below touches, so that a run's fills evict clean
// and dirty victims.
func fillAway(c *Cache) {
	for i := 0; i < 2*Ways*len(c.sets); i++ {
		c.Access(0x400000+arch.PhysAddr(i)<<c.lineShift, Class(i%int(numClasses)), i%2 == 1)
	}
}

// makeResident loads the j-th line of lines for each bit j set in
// resident, dirty for even j.
func makeResident(c *Cache, lines []arch.PhysAddr, resident uint64) {
	for j, l := range lines[:min(len(lines), 64)] {
		if resident>>j&1 != 0 {
			c.Access(l, ClassKernelData, j%2 == 0)
		}
	}
}

// residencies are the patterns TestRunKernelHandOff makes resident:
// bit j of mask(m), for a run touching m lines, makes its j-th line
// resident, so the run hits there and misses elsewhere.
var residencies = []struct {
	name string
	mask func(m int) uint64
}{
	{"all-hit", func(m int) uint64 { return 1<<m - 1 }},
	{"all-miss", func(int) uint64 { return 0 }},
	{"alternating", func(m int) uint64 { return 0x5555555555555555 & (1<<m - 1) }},
	{"alternating-from-miss", func(m int) uint64 { return 0xAAAAAAAAAAAAAAAA & (1<<m - 1) }},
	{"first-misses", func(m int) uint64 { return 1<<m - 2 }},
	{"last-misses", func(m int) uint64 { return 1<<(m-1) - 1 }},
}

// TestRunKernelHandOff holds the hand-off between the run kernels
// (hitRun stops at the first miss, fillRun at the first hit) to the
// scalar Access loop, on the 603's and the 604's L1 geometries: line
// runs under every store mask at every start phase, and sub-line runs
// of strides 8 and 16 from every offset in a line with every head and
// tail size, each over residencies that switch between hit and miss at
// every line, at the first line only and at the last line only. The
// run must match the scalar loop's lines, statistics, and miss and
// castout counts.
func TestRunKernelHandOff(t *testing.T) {
	type shape struct {
		pa        arch.PhysAddr
		n, stride int
		st        Stores
	}
	var shapes []shape
	for st := Stores(0); st <= AllStores; st++ {
		for phase := 0; phase < 4; phase++ {
			shapes = append(shapes, shape{0x10000, 9, 32, st.From(phase)})
		}
	}
	for _, stride := range []int{8, 16} {
		per := 32 / stride
		for off := 0; off < 32; off++ {
			for n := 1; n <= 2*per+2; n++ {
				// Every store mask comes round as the offset and length
				// vary, and the first line alternates between a set
				// whose victim is clean and one whose victim is dirty.
				shapes = append(shapes, shape{0x10000 + arch.PhysAddr(n%2*32+off), n, stride, Stores(off+n) & AllStores})
			}
		}
	}
	shapes = append(shapes, shape{0x10014, 9, 32, 0x8}, shape{0x10000, 9, 96, 0x5}, shape{0x1000c, 7, 4096, AllStores})
	for _, size := range []int{16 << 10, 32 << 10} {
		base := New("base", size, 4, 32)
		fillAway(base)
		cr, cs := New("run", size, 4, 32), New("scalar", size, 4, 32)
		for _, sh := range shapes {
			lines := runLines(sh.pa, sh.n, sh.stride, 32)
			for _, res := range residencies {
				name := func() string {
					return fmt.Sprintf("%dK pa=%#x n=%d stride=%d stores=%#x %s", size>>10, sh.pa, sh.n, sh.stride, sh.st, res.name)
				}
				warm := res.mask(len(lines))
				for _, c := range []*Cache{cr, cs} {
					copy(c.sets, base.sets)
					makeResident(c, lines, warm)
					c.ResetStats()
				}
				sm, sc := scalarCount(cs, sh.pa, sh.n, sh.stride, ClassUser, sh.st)
				rm, rc := cr.AccessRunCountMask(sh.pa, sh.n, sh.stride, ClassUser, sh.st)
				if rm != sm || rc != sc {
					t.Fatalf("%s: run (%d misses, %d castouts), scalar (%d, %d)", name(), rm, rc, sm, sc)
				}
				if *cr.Stats() != *cs.Stats() || !slices.Equal(cr.sets, cs.sets) {
					t.Fatalf("%s: cache state diverges from the scalar loop", name())
				}
			}
		}
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

// FuzzAccessRunCountParity drives random batched runs over the 603's
// and the 604's L1 sizes (geom/3 even or odd) and random store masks,
// checking that batched counts never deviate from the scalar loop and
// the final cache state is bit-identical. A nonzero resident starts both caches full
// (fillAway), with the run's j-th line resident for each bit j set.
func FuzzAccessRunCountParity(f *testing.F) {
	f.Add(uint8(0), uint32(0x10000), uint16(512), uint8(32), uint8(AllStores), uint64(0))
	f.Add(uint8(1), uint32(0x8004), uint16(3000), uint8(12), uint8(NoStores), uint64(0))
	f.Add(uint8(2), uint32(0x10000), uint16(1030), uint8(32), uint8(0x8), uint64(0))
	f.Add(uint8(1), uint32(0x10006), uint16(2000), uint8(4), uint8(0x5), uint64(0))
	// TestRunKernelHandOff's residencies on the 603's (geom 1) and the
	// 604's (geom 4) L1: every line resident, every other line, and
	// all but the first or the last; line runs and sub-line runs with
	// a head and a tail.
	f.Add(uint8(1), uint32(0x10000), uint16(9), uint8(32), uint8(0x8), uint64(1<<9-1))
	f.Add(uint8(4), uint32(0x10000), uint16(9), uint8(32), uint8(0x3), uint64(0x5555555555555555))
	f.Add(uint8(1), uint32(0x10000), uint16(9), uint8(32), uint8(0xE), uint64(0xAAAAAAAAAAAAAAAA))
	f.Add(uint8(4), uint32(0x10000), uint16(9), uint8(32), uint8(AllStores), uint64(1<<9-2))
	f.Add(uint8(1), uint32(0x10000), uint16(9), uint8(32), uint8(0x1), uint64(1<<8-1))
	f.Add(uint8(4), uint32(0x10014), uint16(10), uint8(8), uint8(0x6), uint64(0x5))
	f.Add(uint8(1), uint32(0x10018), uint16(6), uint8(16), uint8(0x9), uint64(0x2))
	f.Add(uint8(4), uint32(0x1000c), uint16(11), uint8(8), uint8(0x4), uint64(0x3))
	// Uniform sub-line runs of strides 8 and 16 (the byte is the stride
	// less one) over three lines or more, which go through the line run
	// kernels: aligned and not, loads and stores.
	f.Add(uint8(4), uint32(0x10000), uint16(64), uint8(7), uint8(NoStores), uint64(0x5))
	f.Add(uint8(1), uint32(0x10014), uint16(13), uint8(7), uint8(AllStores), uint64(0x2))
	f.Add(uint8(1), uint32(0x10000), uint16(6), uint8(15), uint8(AllStores), uint64(0x6))
	f.Add(uint8(4), uint32(0x1001c), uint16(9), uint8(15), uint8(NoStores), uint64(0x9))
	f.Fuzz(func(t *testing.T, geom uint8, pa uint32, n uint16, stride, stores uint8, resident uint64) {
		size := 16 << 10 << (geom / 3 % 2)
		step := int(stride)%256 + 1
		st := Stores(stores)
		cr := New("run", size, Ways, 32)
		cs := New("scalar", size, Ways, 32)
		if resident != 0 {
			lines := runLines(arch.PhysAddr(pa), min(int(n), 64*32), step, 32)
			for _, c := range []*Cache{cr, cs} {
				fillAway(c)
				makeResident(c, lines, resident)
			}
		}
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
// simulation core the hot path proof covers, and a hidden allocation
// would also wreck the throughput the batching exists for.
func TestAccessRunZeroAllocs(t *testing.T) {
	c := New("d", 32<<10, 4, 32)
	var pa arch.PhysAddr
	if n := testing.AllocsPerRun(200, func() {
		c.AccessNoAllocRun(pa, 128, 32, ClassUser, AllStores)
		c.AccessNoAllocRun(pa+2048, 64, 32, ClassUser, 0x8)
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

// BenchmarkShortRun is the shape of a kernel-text fetch: load-only runs
// of 3 and 8 lines that all hit, from seeded line-aligned starts over a
// working set that fills the cache exactly. A run's fixed costs (its
// entry, the hit kernel's call, the flush) weigh the most here.
func BenchmarkShortRun(b *testing.B) {
	for _, lines := range []int{3, 8} {
		b.Run(fmt.Sprintf("lines=%d", lines), func(b *testing.B) {
			c := New("i", 16<<10, 4, 32)
			const resident = 16 << 10 >> 5
			for i := 0; i < resident; i++ {
				c.Access(arch.PhysAddr(i)<<5, ClassKernelText, false)
			}
			rng := rand.New(rand.NewSource(1))
			var start [1024]arch.PhysAddr
			for i := range start {
				start[i] = arch.PhysAddr(rng.Intn(resident-lines)) << 5
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.AccessRunCountMask(start[i%len(start)], lines, 32, ClassKernelText, NoStores)
			}
			if m := c.Stats().TotalMisses(); m != resident {
				b.Fatalf("%d misses, want only the %d loading ones", m, resident)
			}
		})
	}
}

// BenchmarkAccessRunPTEG is the shape of a hash-table search: load runs
// of 8-byte PTEs from slot 0 of a 64-byte PTEG, 2 PTEs (one line, a hit
// in the first slots) and 8 (both lines, a full search), over the
// seeded PTEGs of a 64 KB table, four times the cache, so about three
// in four searches miss. ptes=64 is the idle task's zombie sweep, 8
// PTEGs (16 lines) a run, which walks the table in order, so every
// line misses.
func BenchmarkAccessRunPTEG(b *testing.B) {
	for _, ptes := range []int{2, 8, 64} {
		b.Run(fmt.Sprintf("ptes=%d", ptes), func(b *testing.B) {
			c := New("d", 16<<10, 4, 32)
			rng := rand.New(rand.NewSource(1))
			var pteg [1024]arch.PhysAddr
			for i := range pteg {
				pteg[i] = arch.PhysAddr(rng.Intn(1024)) << 6
				if ptes == 64 {
					pteg[i] = arch.PhysAddr(i*ptes*8) % (64 << 10)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.AccessRunCountMask(pteg[i%len(pteg)], ptes, 8, ClassPageTable, NoStores)
			}
			b.StopTimer()
			b.ReportMetric(c.Stats().MissRate(), "miss/ref")
			if m := c.Stats().TotalMisses(); ptes == 64 && m != uint64(b.N*ptes/4) {
				b.Fatalf("%d misses, want every one of the %d lines swept to miss", m, b.N*ptes/4)
			}
		})
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

// BenchmarkAccessScalarMiss is the scalar path's miss-heavy shape, that
// of the 604 half of xlate-scatter: one Access per op on a 16 KB 4-way
// cache, four in five references to random lines of a 4 MB span (which
// miss) and the rest to a 64-line hot set (which stays resident), half
// of them stores, so about half the victims are dirty.
func BenchmarkAccessScalarMiss(b *testing.B) {
	c := New("d", 16<<10, 4, 32)
	rng := rand.New(rand.NewSource(1))
	const nrefs = 4096
	var pa [nrefs]arch.PhysAddr
	var write [nrefs]bool
	for i := range pa {
		if rng.Intn(5) == 0 {
			pa[i] = 0x400000 + arch.PhysAddr(rng.Intn(64))<<5
		} else {
			pa[i] = arch.PhysAddr(rng.Intn(4<<20)) &^ 3
		}
		write[i] = rng.Intn(2) == 0
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(pa[i%nrefs], ClassUser, write[i%nrefs])
	}
	b.StopTimer()
	s := c.Stats()
	b.ReportMetric(s.MissRate(), "miss/op")
	b.ReportMetric(float64(s.Castouts[ClassUser])/float64(max(s.TotalMisses(), 1)), "castout/miss")
}
