package trace

import (
	"testing"

	"mmutricks/internal/arch"
)

const base = arch.EffectiveAddr(0x10000000)

func pageOf(ea arch.EffectiveAddr) int {
	return int(ea-base) / arch.PageSize
}

func TestSequentialCoversAndWraps(t *testing.T) {
	g := NewSequential(base, 4)
	var got []int
	for i := 0; i < 8; i++ {
		got = append(got, pageOf(g.Next()))
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence %v, want %v", got, want)
		}
	}
}

func TestStridedCoversWhenCoprime(t *testing.T) {
	g := NewStrided(base, 8, 3)
	seen := map[int]bool{}
	for i := 0; i < 8; i++ {
		seen[pageOf(g.Next())] = true
	}
	if len(seen) != 8 {
		t.Fatalf("stride 3 over 8 pages covered %d pages", len(seen))
	}
}

func TestWorkingSetSkew(t *testing.T) {
	g := NewWorkingSet(base, 1000, 100, 90, 7)
	hot := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if pageOf(g.Next()) < 100 {
			hot++
		}
	}
	// 90% go to the hot set directly, plus ~10% of the cold scatter
	// lands there by chance: expect ~91%.
	frac := float64(hot) / n
	if frac < 0.85 || frac > 0.97 {
		t.Fatalf("hot fraction = %.3f, want ~0.91", frac)
	}
}

func TestWorkingSetInBounds(t *testing.T) {
	g := NewWorkingSet(base, 123, 7, 80, 3)
	for i := 0; i < 10000; i++ {
		p := pageOf(g.Next())
		if p < 0 || p >= 123 {
			t.Fatalf("page %d out of bounds", p)
		}
	}
}

func TestPointerChaseIsSingleCycle(t *testing.T) {
	const pages = 257
	g := NewPointerChase(base, pages, 11)
	start := pageOf(g.Next())
	seen := map[int]bool{start: true}
	for i := 0; i < pages-1; i++ {
		p := pageOf(g.Next())
		if seen[p] {
			t.Fatalf("page %d revisited after %d steps — not a single cycle", p, i+1)
		}
		seen[p] = true
	}
	// The next reference closes the cycle.
	if p := pageOf(g.Next()); p != start {
		t.Fatalf("cycle did not close: got %d want %d", p, start)
	}
}

// TestPointerChaseSequencePinned pins two full cycles of one seeded
// walk, so a change to how the permutation is stored cannot move the
// references a workload makes.
func TestPointerChaseSequencePinned(t *testing.T) {
	want := []int{0, 12, 2, 4, 14, 1, 6, 15, 9, 11, 7, 3, 5, 10, 13, 8}
	g := NewPointerChase(base, len(want), 7)
	for i := 0; i < 2*len(want); i++ {
		if p := pageOf(g.Next()); p != want[i%len(want)] {
			t.Fatalf("reference %d: page %d, want %d", i, p, want[i%len(want)])
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	g := NewZipfian(base, 1000, 5)
	counts := map[int]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		counts[pageOf(g.Next())]++
	}
	hot1pct := 0
	for p, c := range counts {
		if p <= 10 {
			hot1pct += c
		}
	}
	if frac := float64(hot1pct) / n; frac < 0.5 {
		t.Fatalf("hottest 1%% got only %.2f of traffic", frac)
	}
}

func TestDeterminism(t *testing.T) {
	gens := func() []Generator {
		return []Generator{
			NewSequential(base, 64),
			NewStrided(base, 64, 7),
			NewWorkingSet(base, 256, 32, 90, 42),
			NewPointerChase(base, 128, 42),
			NewZipfian(base, 512, 42),
		}
	}
	a, b := gens(), gens()
	for gi := range a {
		for i := 0; i < 1000; i++ {
			if a[gi].Next() != b[gi].Next() {
				t.Fatalf("%s not deterministic at step %d", a[gi].Name(), i)
			}
		}
	}
}

func TestNames(t *testing.T) {
	for _, g := range []Generator{
		NewSequential(base, 4), NewStrided(base, 8, 3),
		NewWorkingSet(base, 100, 10, 90, 1), NewPointerChase(base, 16, 1),
		NewZipfian(base, 200, 1),
	} {
		if g.Name() == "" {
			t.Error("empty generator name")
		}
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []func(){
		func() { NewSequential(base, 0) },
		func() { NewStrided(base, 0, 1) },
		func() { NewStrided(base, 8, 0) },
		func() { NewWorkingSet(base, 10, 20, 50, 1) },
		func() { NewWorkingSet(base, 10, 5, 150, 1) },
		func() { NewPointerChase(base, 0, 1) },
		func() { NewZipfian(base, 50, 1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			f()
		}()
	}
}
