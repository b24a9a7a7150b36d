// Package trace generates synthetic memory-reference streams with
// controlled locality, for TLB and cache studies. §5.1 of the paper
// worries (via Talluri) that "our benchmarks do not represent
// applications that really stress TLB capacity"; these generators build
// the workloads that do.
//
// All generators are deterministic: they use a small self-contained
// xorshift PRNG seeded explicitly, so experiments reproduce exactly.
package trace

import (
	"fmt"
	"slices"

	"mmutricks/internal/arch"
)

// Generator produces an infinite reference stream over a region of
// pages. Next returns the effective address of the next reference.
type Generator interface {
	// Next returns the next reference.
	Next() arch.EffectiveAddr
	// Name labels the generator in reports.
	Name() string
}

// RunGenerator is implemented by generators whose stream is locally
// arithmetic: NextRun returns the next batch of references as one
// equally-strided run, advancing the stream exactly as the same number
// of Next calls would. Random-pattern generators stay per-reference.
type RunGenerator interface {
	Generator
	// NextRun returns the start address, the reference count
	// (1 <= count <= max), and the byte stride of the next batch.
	NextRun(max int) (ea arch.EffectiveAddr, count, stride int)
}

// rng is a deterministic xorshift32.
type rng uint32

func newRNG(seed uint32) *rng {
	if seed == 0 {
		seed = 0x9E3779B9
	}
	r := rng(seed)
	return &r
}

func (r *rng) next() uint32 {
	x := uint32(*r)
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	*r = rng(x)
	return x
}

func (r *rng) intn(n int) int { return int(r.next() % uint32(n)) }

// Sequential sweeps the region page by page, touching one word per
// page — the TLB-worst, cache-indifferent pattern of a big array walk.
type Sequential struct {
	base  arch.EffectiveAddr
	pages int
	pos   int
}

// NewSequential builds a sequential page walker.
func NewSequential(base arch.EffectiveAddr, pages int) *Sequential {
	if pages <= 0 {
		panic("trace: non-positive page count")
	}
	return &Sequential{base: base, pages: pages}
}

// Name implements Generator.
func (s *Sequential) Name() string { return "sequential" }

// Next implements Generator.
func (s *Sequential) Next() arch.EffectiveAddr {
	ea := s.base + arch.EffectiveAddr(s.pos*arch.PageSize)
	s.pos = (s.pos + 1) % s.pages
	return ea
}

// NextRun implements RunGenerator: the walk is arithmetic until it
// wraps at the region end.
func (s *Sequential) NextRun(max int) (arch.EffectiveAddr, int, int) {
	count := s.pages - s.pos
	if count > max {
		count = max
	}
	ea := s.base + arch.EffectiveAddr(s.pos*arch.PageSize)
	s.pos = (s.pos + count) % s.pages
	return ea, count, arch.PageSize
}

// Strided touches every k-th page, wrapping — the pattern of row
// accesses in a column-major matrix.
type Strided struct {
	base   arch.EffectiveAddr
	pages  int
	stride int
	pos    int
}

// NewStrided builds a strided walker. The stride should be co-prime
// with the page count to cover the whole region.
func NewStrided(base arch.EffectiveAddr, pages, stride int) *Strided {
	if pages <= 0 || stride <= 0 {
		panic("trace: bad strided geometry")
	}
	return &Strided{base: base, pages: pages, stride: stride}
}

// Name implements Generator.
func (s *Strided) Name() string { return fmt.Sprintf("strided-%d", s.stride) }

// Next implements Generator.
func (s *Strided) Next() arch.EffectiveAddr {
	ea := s.base + arch.EffectiveAddr(s.pos*arch.PageSize)
	s.pos = (s.pos + s.stride) % s.pages
	return ea
}

// NextRun implements RunGenerator: the walk is arithmetic until the
// position would wrap past the region end.
func (s *Strided) NextRun(max int) (arch.EffectiveAddr, int, int) {
	count := (s.pages-1-s.pos)/s.stride + 1
	if count > max {
		count = max
	}
	ea := s.base + arch.EffectiveAddr(s.pos*arch.PageSize)
	s.pos = (s.pos + count*s.stride) % s.pages
	return ea, count, s.stride * arch.PageSize
}

// WorkingSet models the classic 90/10 behaviour: most references land
// in a hot subset of the region, the rest scatter across all of it.
type WorkingSet struct {
	base     arch.EffectiveAddr
	pages    int
	hotPages int
	hotPct   int
	r        *rng
}

// NewWorkingSet builds a working-set generator: hotPct percent of
// references hit the first hotPages pages.
func NewWorkingSet(base arch.EffectiveAddr, pages, hotPages, hotPct int, seed uint32) *WorkingSet {
	if pages <= 0 || hotPages <= 0 || hotPages > pages || hotPct < 0 || hotPct > 100 {
		panic("trace: bad working-set geometry")
	}
	return &WorkingSet{base: base, pages: pages, hotPages: hotPages, hotPct: hotPct, r: newRNG(seed)}
}

// Name implements Generator.
func (w *WorkingSet) Name() string {
	return fmt.Sprintf("workingset-%d/%d-%d%%", w.hotPages, w.pages, w.hotPct)
}

// Next implements Generator.
func (w *WorkingSet) Next() arch.EffectiveAddr {
	var page int
	if w.r.intn(100) < w.hotPct {
		page = w.r.intn(w.hotPages)
	} else {
		page = w.r.intn(w.pages)
	}
	off := w.r.intn(arch.PageSize / 4)
	return w.base + arch.EffectiveAddr(page*arch.PageSize+off*4)
}

// PointerChase follows a fixed pseudo-random permutation cycle over the
// pages — linked-list traversal, the pattern that defeats both
// prefetchers and spatial locality.
type PointerChase struct {
	base arch.EffectiveAddr
	// order lists the pages in visiting order; the walk starts at the
	// position of page 0 and wraps.
	order []uint32
	pos   int
}

// NewPointerChase builds a permutation walk covering every page exactly
// once per cycle (a Sattolo shuffle, so the permutation is one cycle).
func NewPointerChase(base arch.EffectiveAddr, pages int, seed uint32) *PointerChase {
	if pages <= 0 {
		panic("trace: non-positive page count")
	}
	r := newRNG(seed)
	order := make([]uint32, pages)
	for i := range order {
		order[i] = uint32(i)
	}
	// Sattolo's algorithm: a uniformly random single-cycle permutation.
	for i := pages - 1; i > 0; i-- {
		j := r.intn(i)
		order[i], order[j] = order[j], order[i]
	}
	return &PointerChase{base: base, order: order, pos: slices.Index(order, 0)}
}

// Name implements Generator.
func (p *PointerChase) Name() string { return "pointer-chase" }

// Next implements Generator.
func (p *PointerChase) Next() arch.EffectiveAddr {
	ea := p.base + arch.EffectiveAddr(p.order[p.pos])*arch.PageSize
	if p.pos++; p.pos == len(p.order) {
		p.pos = 0
	}
	return ea
}

// Zipfian approximates a Zipf-distributed page popularity with a
// coarse three-tier model (the realistic shape for page-cache and
// database buffer traffic).
type Zipfian struct {
	base  arch.EffectiveAddr
	pages int
	r     *rng
}

// NewZipfian builds the three-tier popularity generator.
func NewZipfian(base arch.EffectiveAddr, pages int, seed uint32) *Zipfian {
	if pages < 100 {
		panic("trace: zipfian needs >= 100 pages")
	}
	return &Zipfian{base: base, pages: pages, r: newRNG(seed)}
}

// Name implements Generator.
func (z *Zipfian) Name() string { return "zipfian" }

// Next implements Generator.
func (z *Zipfian) Next() arch.EffectiveAddr {
	var page int
	switch roll := z.r.intn(100); {
	case roll < 60: // 60% of traffic to the hottest 1%
		page = z.r.intn(z.pages/100 + 1)
	case roll < 90: // 30% to the next 10%
		page = z.pages/100 + z.r.intn(z.pages/10)
	default: // tail
		page = z.r.intn(z.pages)
	}
	if page >= z.pages {
		page = z.pages - 1
	}
	off := z.r.intn(arch.PageSize / 4)
	return z.base + arch.EffectiveAddr(page*arch.PageSize+off*4)
}
