// Package cache implements the set-associative L1 caches of the PowerPC
// 603/604 as a functional simulator with true-LRU replacement.
//
// Beyond hit/miss behaviour, the cache attributes every access, fill and
// eviction to a traffic class (user data, kernel text, page tables, the
// hash table, idle-task work, ...). Sections 8 and 9 of the paper are
// about exactly this attribution: page-table walks and idle-task page
// clearing filling the cache with lines that displace useful user data.
// Cache-inhibited accesses (the architected WIMG "I" bit) bypass the
// cache entirely, which is how the paper's uncached page-clearing and
// uncached idle-task experiments work.
package cache

import (
	"fmt"
	"math/bits"

	"mmutricks/internal/arch"
)

// Class identifies who generated a memory access, for attribution.
type Class int

const (
	// ClassUser is ordinary user-mode instruction/data traffic.
	ClassUser Class = iota
	// ClassKernelText is kernel instruction fetch.
	ClassKernelText
	// ClassKernelData is kernel data (task structs, buffers, stacks).
	ClassKernelData
	// ClassPageTable is traffic to the Linux two-level page tables.
	ClassPageTable
	// ClassHashTable is traffic to the PowerPC hashed page table.
	ClassHashTable
	// ClassIdle is work done by the idle task (page clearing, zombie
	// reclaim scans).
	ClassIdle
	// ClassIO is device/frame-buffer traffic.
	ClassIO
	numClasses
)

// Classes lists all traffic classes in order, for iteration in reports.
var Classes = []Class{ClassUser, ClassKernelText, ClassKernelData, ClassPageTable, ClassHashTable, ClassIdle, ClassIO}

func (c Class) String() string {
	switch c {
	case ClassUser:
		return "user"
	case ClassKernelText:
		return "kernel-text"
	case ClassKernelData:
		return "kernel-data"
	case ClassPageTable:
		return "page-table"
	case ClassHashTable:
		return "hash-table"
	case ClassIdle:
		return "idle"
	case ClassIO:
		return "io"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// lineKeyValid marks a resident line in the packed key. Tags are line
// addresses (physical address >> lineShift), which for a 32-bit
// physical space never reach bit 31, so key==tag|lineKeyValid makes
// the hot-path probe a single compare per way: an invalid line's key
// is 0 and can never equal a wanted key.
const lineKeyValid uint32 = 1 << 31

// line is one cache line's state, packed to 16 bytes so a 4-way set
// occupies a single host cache line.
type line struct {
	key   uint32 // tag | lineKeyValid when resident; 0 when invalid
	class uint8
	dirty uint8
	_     [2]byte
	// lru is a per-set sequence number; larger = more recently used.
	lru uint64
}

// Stats aggregates per-class counters for one cache.
type Stats struct {
	Accesses  [numClasses]uint64
	Misses    [numClasses]uint64
	Inhibited [numClasses]uint64
	Fills     [numClasses]uint64
	// Castouts[victim] counts dirty lines of class `victim` written
	// back to memory on eviction (the 603/604 caches are copy-back).
	Castouts [numClasses]uint64
	// EvictedBy[victim][filler] counts lines of class `victim` evicted
	// by a fill on behalf of class `filler` — the pollution matrix.
	EvictedBy [numClasses][numClasses]uint64
}

// TotalAccesses sums accesses over all classes.
func (s *Stats) TotalAccesses() uint64 {
	var t uint64
	for _, v := range s.Accesses {
		t += v
	}
	return t
}

// TotalMisses sums misses over all classes.
func (s *Stats) TotalMisses() uint64 {
	var t uint64
	for _, v := range s.Misses {
		t += v
	}
	return t
}

// MissRate returns misses/accesses over all classes (0 if idle).
func (s *Stats) MissRate() float64 {
	a := s.TotalAccesses()
	if a == 0 {
		return 0
	}
	return float64(s.TotalMisses()) / float64(a)
}

// PollutionBy returns how many lines belonging to *other* classes were
// evicted by fills on behalf of class c.
func (s *Stats) PollutionBy(c Class) uint64 {
	var t uint64
	for victim := Class(0); victim < numClasses; victim++ {
		if victim != c {
			t += s.EvictedBy[victim][c]
		}
	}
	return t
}

// Cache is one set-associative L1 cache (instruction or data). Lines
// are stored flat (set-major): one bounds-checked slice index reaches
// any set, with no per-set pointer chase on the hot path.
type Cache struct {
	name      string
	lines     []line
	ways      int
	lineShift uint
	setMask   uint32
	seq       uint64
	stats     Stats
}

// New builds a cache of the given total size, associativity and line
// size. Size must be ways*lineSize*2^k for some k.
func New(name string, size, ways, lineSize int) *Cache {
	if size <= 0 || ways <= 0 || lineSize <= 0 {
		panic("cache: non-positive geometry")
	}
	nlines := size / lineSize
	nsets := nlines / ways
	if nsets*ways*lineSize != size || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache %s: invalid geometry size=%d ways=%d line=%d", name, size, ways, lineSize))
	}
	shift := uint(0)
	for 1<<shift < lineSize {
		shift++
	}
	return &Cache{
		name:      name,
		lines:     make([]line, nlines),
		ways:      ways,
		lineShift: shift,
		setMask:   uint32(nsets - 1),
	}
}

// Name returns the label the cache was created with.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
//
//mmutricks:noalloc
func (c *Cache) Sets() int { return len(c.lines) / c.ways }

// setLines returns the ways of one set as a subslice of the flat array.
//
//mmutricks:noalloc
func (c *Cache) setLines(set int) []line {
	base := set * c.ways
	return c.lines[base : base+c.ways]
}

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() int { return 1 << c.lineShift }

// Stats returns a pointer to the live counters.
func (c *Cache) Stats() *Stats { return &c.stats }

// index splits a physical address into set index and tag.
//
//mmutricks:noalloc
func (c *Cache) index(pa arch.PhysAddr) (set int, tag uint32) {
	lineAddr := uint32(pa) >> c.lineShift
	return int(lineAddr & c.setMask), lineAddr
}

// Access performs one cached access on behalf of class. It returns
// whether the access hit and whether a miss had to cast out a dirty
// victim line (a memory writeback the caller must charge — the 603/604
// caches are copy-back). Writes mark the line dirty; misses allocate
// for both reads and writes, and any evicted line is attributed in the
// pollution matrix.
//
//mmutricks:free hit/miss/castout are returned; the machine layer charges them
//mmutricks:noalloc
func (c *Cache) Access(pa arch.PhysAddr, class Class, write bool) (hit, castout bool) {
	c.stats.Accesses[class]++
	set, tag := c.index(pa)
	want := tag | lineKeyValid
	c.seq++
	if c.ways == 4 {
		q := (*[4]line)(c.lines[set*4:])
		var hitLine *line
		switch want {
		case q[0].key:
			hitLine = &q[0]
		case q[1].key:
			hitLine = &q[1]
		case q[2].key:
			hitLine = &q[2]
		case q[3].key:
			hitLine = &q[3]
		}
		if hitLine != nil {
			hitLine.lru = c.seq
			if write {
				hitLine.dirty = 1
			}
			return true, false
		}
		c.stats.Misses[class]++
		return false, c.fill(set, tag, class, write)
	}
	lines := c.setLines(set)
	for i := range lines {
		if lines[i].key == want {
			lines[i].lru = c.seq
			if write {
				lines[i].dirty = 1
			}
			return true, false
		}
	}
	c.stats.Misses[class]++
	castout = c.fill(set, tag, class, write)
	return false, castout
}

// AccessInhibited performs a cache-inhibited access: it never hits and
// never fills, exactly like a WIMG I=1 access on the real part.
//
//mmutricks:free the caller charges the uncached memory latency
//mmutricks:noalloc
func (c *Cache) AccessInhibited(class Class) {
	c.stats.Inhibited[class]++
}

// AccessNoAlloc performs an access under a locked cache (§10.1): hits
// behave normally, but misses do not allocate — nothing is evicted to
// make room. It returns whether the access hit.
//
//mmutricks:free hit/miss is returned; the machine layer charges it
//mmutricks:noalloc
func (c *Cache) AccessNoAlloc(pa arch.PhysAddr, class Class, write bool) (hit bool) {
	c.stats.Accesses[class]++
	set, tag := c.index(pa)
	lines := c.setLines(set)
	want := tag | lineKeyValid
	c.seq++
	for i := range lines {
		if lines[i].key == want {
			lines[i].lru = c.seq
			if write {
				lines[i].dirty = 1
			}
			return true
		}
	}
	c.stats.Misses[class]++
	return false
}

// ZeroLine is the dcbz instruction: establish the line in the cache,
// zeroed and dirty, WITHOUT reading memory. §9 notes the authors
// avoided it for bzero() "for the same reason" as cached idle clearing:
// it trades a memory read for maximal cache pollution. It returns
// whether a dirty victim was cast out.
//
//mmutricks:free the castout is returned; machine.ZeroLine charges it
func (c *Cache) ZeroLine(pa arch.PhysAddr, class Class) (castout bool) {
	c.stats.Accesses[class]++
	set, tag := c.index(pa)
	lines := c.setLines(set)
	want := tag | lineKeyValid
	c.seq++
	for i := range lines {
		if lines[i].key == want {
			lines[i].lru = c.seq
			lines[i].dirty = 1
			return false
		}
	}
	// Counts as an access but not a (latency-bearing) miss: the fill
	// needs no memory read.
	return c.fill(set, tag, class, true)
}

// Stores is a run's store pattern: reference i of a run stores iff bit
// i&3 is set (higher bits are ignored). A period of four covers pure
// load and pure store streams as well as the user mix's one store per
// four accesses (§4).
type Stores uint8

const (
	// NoStores is a load-only run.
	NoStores Stores = 0
	// AllStores is a store-only run.
	AllStores Stores = 0xF
)

// StoresOf returns the uniform mask of a load (false) or store (true)
// run.
//
//mmutricks:noalloc
func StoresOf(write bool) Stores {
	if write {
		return AllStores
	}
	return NoStores
}

// At reports whether reference i of the run stores.
//
//mmutricks:noalloc
func (s Stores) At(i int) bool { return s>>(i&3)&1 != 0 }

// From returns the mask of the run's tail starting at reference i.
//
//mmutricks:noalloc
func (s Stores) From(i int) Stores {
	s &= AllStores
	r := uint(i & 3)
	return (s>>r | s<<(4-r)) & AllStores
}

// storeLanes is a store mask replicated across a 64-bit word: bit j is
// the store flag of the reference j places ahead. 64 is a multiple of
// the mask's period, so rotating right by k advances the run by k
// references.
type storeLanes uint64

//mmutricks:noalloc
func (s Stores) lanes() storeLanes {
	return storeLanes(uint64(s&AllStores) * 0x1111111111111111)
}

// take consumes the next k ≥ 1 references, which all land on one line:
// the line ends dirty iff any of them stores.
//
//mmutricks:noalloc
func (l storeLanes) take(k int) (dirty uint8, rest storeLanes) {
	if uint64(l)&(1<<min(k, 4)-1) != 0 {
		dirty = 1
	}
	return dirty, storeLanes(bits.RotateLeft64(uint64(l), -k))
}

// MissRef records one missing reference within a run: the index of the
// reference in the run and whether its fill cast out a dirty victim.
type MissRef struct {
	Index   int32
	Castout bool
}

// AccessRun performs n equally-strided accesses (pa, pa+stride, ...)
// on behalf of class, reference i storing iff st.At(i), exactly as n
// scalar Access calls would: same counters, same final LRU/dirty state,
// same eviction attribution. Consecutive references landing on one
// resident line collapse into a single sequence advance with the final
// LRU stamp (the intermediate stamps are unobservable — a hit touches
// no other line), and the line ends dirty iff any of them stores.
// Missing references are recorded in misses, in reference order, so the
// machine layer can charge fills and emit trace events at the right
// points; the caller's buffer must hold one entry per distinct line
// the run can touch.
//
//mmutricks:free misses are returned; the machine layer charges the fills
//mmutricks:noalloc
func (c *Cache) AccessRun(pa arch.PhysAddr, n, stride int, class Class, st Stores, misses []MissRef) (nmiss int) {
	if c.ways != 4 {
		// Both L1s are 4-way and the direct-mapped L2 takes only scalar
		// Access, so only test geometries get here: one Access per
		// reference, exact by construction.
		for i := 0; i < n; i++ {
			if hit, castout := c.Access(pa+arch.PhysAddr(i*stride), class, st.At(i)); !hit {
				misses[nmiss] = MissRef{Index: int32(i), Castout: castout}
				nmiss++
			}
		}
		return nmiss
	}
	c.stats.Accesses[class] += uint64(n)
	lineSize := 1 << c.lineShift
	sl := st.lanes()
	if stride&(lineSize-1) != 0 || uint32(pa)&uint32(lineSize-1) != 0 {
		nmiss, _ = c.accessGroups(pa, n, stride, class, sl, misses)
		return nmiss
	}
	// Line-aligned references with a line-multiple stride — the dominant
	// shape (one access per line): no two references share a line, so
	// each is one probe with the fill inlined.
	la := uint32(pa) >> c.lineShift
	step := uint32(stride) >> c.lineShift
	seq := c.seq
	var dirty uint8
	// Per-victim-class eviction counts accumulate in locals and flush
	// once after the loop — the increments are the hottest stores in
	// the simulator. Sized 8 and masked so indexing by the victim's
	// class byte needs no bounds check.
	var ev, co [8]uint64
	for i := 0; i < n; i++ {
		q := (*[4]line)(c.lines[int(la&c.setMask)*4:])
		want := la | lineKeyValid
		seq++
		dirty, sl = sl.take(1)
		la += step
		var hitLine *line
		switch want {
		case q[0].key:
			hitLine = &q[0]
		case q[1].key:
			hitLine = &q[1]
		case q[2].key:
			hitLine = &q[2]
		case q[3].key:
			hitLine = &q[3]
		}
		if hitLine != nil {
			hitLine.lru = seq
			hitLine.dirty |= dirty
			continue
		}
		vi, full := victim4(q)
		v := &q[vi&3]
		var d uint64
		if full {
			ev[v.class&7]++
			d = uint64(v.dirty)
			co[v.class&7] += d
		}
		*v = line{key: want, class: uint8(class), dirty: dirty, lru: seq}
		misses[nmiss] = MissRef{Index: int32(i), Castout: d != 0}
		nmiss++
	}
	c.seq = seq
	c.flushRun(class, nmiss, &ev, &co)
	return nmiss
}

// flushRun adds an aligned run's miss, fill and per-victim-class
// eviction counts to the statistics.
//
//mmutricks:noalloc
func (c *Cache) flushRun(class Class, nmiss int, ev, co *[8]uint64) {
	c.stats.Misses[class] += uint64(nmiss)
	c.stats.Fills[class] += uint64(nmiss)
	for v := 0; v < int(numClasses); v++ {
		c.stats.EvictedBy[v][class] += ev[v]
		c.stats.Castouts[v] += co[v]
	}
}

// accessGroups advances a 4-way run of any alignment and stride by
// grouping its references by the line they land on (the grouping scan
// is division-free; line-crossing groups are short). A group on a
// resident line is one sequence advance to its final stamp. On any
// other line the group's first reference misses and fills and the rest
// hit the fresh line, so the fill takes the final stamp directly. The
// misses are recorded in misses unless it is nil.
//
//mmutricks:noalloc
func (c *Cache) accessGroups(pa arch.PhysAddr, n, stride int, class Class, sl storeLanes, misses []MissRef) (nmiss, ncast int) {
	for i := 0; i < n; {
		a := pa + arch.PhysAddr(i*stride)
		la := uint32(a) >> c.lineShift
		k := 1
		for i+k < n && uint32(a+arch.PhysAddr(k*stride))>>c.lineShift == la {
			k++
		}
		var dirty uint8
		dirty, sl = sl.take(k)
		c.seq += uint64(k)
		set := int(la & c.setMask)
		q := (*[4]line)(c.lines[set*4:])
		want := la | lineKeyValid
		wi := -1
		if q[0].key == want {
			wi = 0
		}
		if q[1].key == want {
			wi = 1
		}
		if q[2].key == want {
			wi = 2
		}
		if q[3].key == want {
			wi = 3
		}
		if wi >= 0 {
			p := &q[wi&3]
			p.lru = c.seq
			p.dirty |= dirty
		} else {
			c.stats.Misses[class]++
			castout := c.fill(set, la, class, dirty != 0)
			if misses != nil {
				misses[nmiss] = MissRef{Index: int32(i), Castout: castout}
			}
			nmiss++
			if castout {
				ncast++
			}
		}
		i += k
	}
	return nmiss, ncast
}

// AccessRunCount is AccessRunCountMask for a pure load or store run.
//
//mmutricks:free miss/castout counts are returned; the machine layer charges them
//mmutricks:noalloc
func (c *Cache) AccessRunCount(pa arch.PhysAddr, n, stride int, class Class, write bool) (nmiss, ncast int) {
	return c.AccessRunCountMask(pa, n, stride, class, StoresOf(write))
}

// AccessRunCountMask is AccessRun without the per-miss records: cache
// state and statistics advance identically, but only the miss and
// castout counts come back. The machine layer uses it when the tracer
// is off and there is no L2 — the per-miss fill costs are then
// closed-form, so nothing downstream needs to know where the misses
// fell, and the run needs no chunking to bound a scratch buffer.
//
//mmutricks:free miss/castout counts are returned; the machine layer charges them
//mmutricks:noalloc
func (c *Cache) AccessRunCountMask(pa arch.PhysAddr, n, stride int, class Class, st Stores) (nmiss, ncast int) {
	if c.ways != 4 {
		// Test geometries only, as in AccessRun.
		for i := 0; i < n; i++ {
			if hit, castout := c.Access(pa+arch.PhysAddr(i*stride), class, st.At(i)); !hit {
				nmiss++
				if castout {
					ncast++
				}
			}
		}
		return nmiss, ncast
	}
	c.stats.Accesses[class] += uint64(n)
	lineSize := 1 << c.lineShift
	sl := st.lanes()
	if stride&(lineSize-1) != 0 || uint32(pa)&uint32(lineSize-1) != 0 {
		return c.accessGroups(pa, n, stride, class, sl, nil)
	}
	la := uint32(pa) >> c.lineShift
	step := uint32(stride) >> c.lineShift
	seq := c.seq
	mask := c.setMask
	lines := c.lines
	var dirty uint8
	var ev, co [8]uint64
	for i := 0; i < n; i++ {
		q := (*[4]line)(lines[int(la&mask)*4:])
		want := la | lineKeyValid
		seq++
		dirty, sl = sl.take(1)
		la += step
		// Probe all four ways before acting on the result — runs are
		// phase-coherent (a clear run misses throughout, a warm run hits
		// throughout), so the probe's branches predict well.
		wi := -1
		if q[0].key == want {
			wi = 0
		}
		if q[1].key == want {
			wi = 1
		}
		if q[2].key == want {
			wi = 2
		}
		if q[3].key == want {
			wi = 3
		}
		if wi >= 0 {
			p := &q[wi&3]
			p.lru = seq
			p.dirty |= dirty
			continue
		}
		vi, full := victim4(q)
		v := &q[vi&3]
		if full {
			ev[v.class&7]++
			d := uint64(v.dirty)
			co[v.class&7] += d
			ncast += int(d)
		}
		*v = line{key: want, class: uint8(class), dirty: dirty, lru: seq}
		nmiss++
	}
	c.seq = seq
	c.flushRun(class, nmiss, &ev, &co)
	return nmiss, ncast
}

// AccessNoAllocRun is AccessRun under a locked cache (§10.1): hits
// behave normally, but misses do not allocate, so every reference on a
// non-resident line misses and is recorded individually (the caller's
// buffer must hold n entries).
//
//mmutricks:free misses are returned; the machine layer charges the uncached latency
//mmutricks:noalloc
func (c *Cache) AccessNoAllocRun(pa arch.PhysAddr, n, stride int, class Class, st Stores, misses []MissRef) (nmiss int) {
	c.stats.Accesses[class] += uint64(n)
	sl := st.lanes()
	for i := 0; i < n; {
		a := pa + arch.PhysAddr(i*stride)
		la := uint32(a) >> c.lineShift
		k := 1
		for i+k < n && uint32(a+arch.PhysAddr(k*stride))>>c.lineShift == la {
			k++
		}
		var dirty uint8
		dirty, sl = sl.take(k)
		set := c.setLines(int(la & c.setMask))
		want := la | lineKeyValid
		way := -1
		for w := range set {
			if set[w].key == want {
				way = w
				break
			}
		}
		c.seq += uint64(k)
		if way >= 0 {
			set[way].lru = c.seq
			set[way].dirty |= dirty
		} else {
			c.stats.Misses[class] += uint64(k)
			for j := 0; j < k; j++ {
				misses[nmiss] = MissRef{Index: int32(i + j)}
				nmiss++
			}
		}
		i += k
	}
	return nmiss
}

// ZeroLineRun performs n consecutive dcbz line-establishes starting at
// pa, exactly as n scalar ZeroLine calls. It returns how many dirty
// victims were cast out in total.
//
//mmutricks:free castouts are returned; machine.ZeroLineRun charges them
//mmutricks:noalloc
func (c *Cache) ZeroLineRun(pa arch.PhysAddr, nlines int, class Class) (castouts int) {
	for i := 0; i < nlines; i++ {
		if c.ZeroLine(pa+arch.PhysAddr(i<<c.lineShift), class) {
			castouts++
		}
	}
	return castouts
}

// AccessInhibitedN counts n cache-inhibited accesses in one step.
//
//mmutricks:free the caller charges the uncached memory latency
//mmutricks:noalloc
func (c *Cache) AccessInhibitedN(class Class, n int) {
	c.stats.Inhibited[class] += uint64(n)
}

// Prefetch issues a dcbt-style touch: the line is brought in (filling
// and possibly evicting, with normal attribution) but no access or miss
// is counted — the latency is assumed overlapped with other work. It
// reports whether a fill was needed.
//
//mmutricks:free prefetch latency overlaps; machine.Prefetch charges the issue cost
func (c *Cache) Prefetch(pa arch.PhysAddr, class Class) (filled bool) {
	set, tag := c.index(pa)
	lines := c.setLines(set)
	want := tag | lineKeyValid
	c.seq++
	for i := range lines {
		if lines[i].key == want {
			lines[i].lru = c.seq
			return false
		}
	}
	c.fill(set, tag, class, false)
	return true
}

// Touch fills a line without counting an access or a miss; used to
// preload state (e.g. warming the cache before measurement).
//
//mmutricks:free deliberately uncounted warm-up, outside the measured window
func (c *Cache) Touch(pa arch.PhysAddr, class Class) {
	set, tag := c.index(pa)
	lines := c.setLines(set)
	want := tag | lineKeyValid
	c.seq++
	for i := range lines {
		if lines[i].key == want {
			lines[i].lru = c.seq
			return
		}
	}
	c.fill(set, tag, class, false)
}

// fill installs a line stamped with the current sequence number,
// evicting the LRU way if the set is full. It reports whether the
// victim was dirty (requiring a writeback).
//
//mmutricks:noalloc
func (c *Cache) fill(set int, tag uint32, class Class, write bool) (castout bool) {
	c.stats.Fills[class]++
	lines := c.setLines(set)
	vi, full := 0, true
	if c.ways == 4 {
		vi, full = victim4((*[4]line)(lines))
	} else {
		// The same rule as victim4, as a plain scan (the L2 is
		// direct-mapped; other geometries are test-only).
		for i := range lines {
			if lines[i].key&lineKeyValid == 0 {
				vi, full = i, false
				break
			}
			if lines[i].lru < lines[vi].lru {
				vi = i
			}
		}
	}
	v := &lines[vi]
	if full {
		c.stats.EvictedBy[v.class][class]++
		c.stats.Castouts[v.class] += uint64(v.dirty)
		castout = v.dirty != 0
	}
	var dirty uint8
	if write {
		dirty = 1
	}
	*v = line{key: tag | lineKeyValid, class: uint8(class), dirty: dirty, lru: c.seq}
	return castout
}

// victim4 chooses the way of a 4-way set that a fill replaces: the
// first invalid way, or, when the set is full, the least recently used
// way — the smallest LRU stamp, the earliest way winning a tie. full
// reports whether a resident line is evicted. Neither choice branches
// on the data: a streaming fill's victim way varies from set to set, so
// a branching scan mispredicts on a large share of misses. The only
// branch, full or not, is steady within a run.
//
//mmutricks:noalloc
func victim4(q *[4]line) (vi int, full bool) {
	// Bit w of valid is way w's lineKeyValid bit (bit 31 of its key).
	valid := q[0].key>>31 | q[1].key>>31<<1 | q[2].key>>31<<2 | q[3].key>>31<<3
	if valid != 0xF {
		return bits.TrailingZeros32(^valid), false
	}
	// A tournament of strict comparisons. The borrow of y-x is 1 iff
	// y < x, so a later way displaces an earlier one only when its
	// stamp is strictly older, and -borrow masks the selection.
	l0, l1, l2, l3 := q[0].lru, q[1].lru, q[2].lru, q[3].lru
	_, b01 := bits.Sub64(l1, l0, 0)
	_, b23 := bits.Sub64(l3, l2, 0)
	m01 := l0 ^ (l0^l1)&-b01
	m23 := l2 ^ (l2^l3)&-b23
	_, b := bits.Sub64(m23, m01, 0)
	i01, i23 := b01, 2|b23
	return int(i01 ^ (i01^i23)&-b), true
}

// Contains reports whether the line holding pa is currently resident.
func (c *Cache) Contains(pa arch.PhysAddr) bool {
	set, tag := c.index(pa)
	want := tag | lineKeyValid
	for _, l := range c.setLines(set) {
		if l.key == want {
			return true
		}
	}
	return false
}

// InvalidateAll empties the cache (used at machine reset).
//
//mmutricks:free machine reset happens outside any measured window
func (c *Cache) InvalidateAll() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
}

// ResetStats zeroes the counters without touching cache contents, so a
// benchmark can warm up and then measure.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// CorruptCleanLine picks an arbitrary valid, clean line — skipping the
// line holding avoid, so the access in flight is never the victim —
// and returns its physical address as a parity-fault report. Clean
// lines only: a flip in a clean line is recoverable by invalidation
// (memory still has the data); a dirty line would be data loss. The
// line state itself is untouched — the poison lives in the pending
// machine-check report, and the repair is InvalidateLine.
//
//mmutricks:free a hardware parity flip costs the running program nothing
//mmutricks:noalloc
func (c *Cache) CorruptCleanLine(rnd uint64, avoid arch.PhysAddr) (victim arch.PhysAddr, ok bool) {
	avoidKey := (uint32(avoid) >> c.lineShift) | lineKeyValid
	start := uint32(rnd) & c.setMask
	for i := 0; i < c.Sets(); i++ {
		set := c.setLines(int((start + uint32(i)) & c.setMask))
		for j := range set {
			if set[j].key&lineKeyValid != 0 && set[j].dirty == 0 && set[j].key != avoidKey {
				return arch.PhysAddr(set[j].key&^lineKeyValid) << c.lineShift, true
			}
		}
	}
	return 0, false
}

// InvalidateLine drops the line holding pa, if resident — the
// machine-check repair for a cache parity fault. Idempotent; reports
// whether the line was still there.
//
//mmutricks:free the caller (the machine-check handler) charges the repair
//mmutricks:noalloc
func (c *Cache) InvalidateLine(pa arch.PhysAddr) bool {
	set, tag := c.index(pa)
	lines := c.setLines(set)
	want := tag | lineKeyValid
	for i := range lines {
		if lines[i].key == want {
			lines[i] = line{}
			return true
		}
	}
	return false
}

// Residency counts resident lines per class — a snapshot of who owns
// the cache, used by the §9 analysis.
func (c *Cache) Residency() map[Class]int {
	m := make(map[Class]int)
	for i := range c.lines {
		if c.lines[i].key&lineKeyValid != 0 {
			m[Class(c.lines[i].class)]++
		}
	}
	return m
}

// DirtyLines counts resident dirty lines — pending writebacks.
func (c *Cache) DirtyLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].key&lineKeyValid != 0 && c.lines[i].dirty != 0 {
			n++
		}
	}
	return n
}
