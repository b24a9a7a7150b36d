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
	"unsafe"

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

// line is one cache line's state, packed to 8 bytes so a 4-way set
// occupies 32 bytes of one host cache line.
type line struct {
	key   uint32 // tag | lineKeyValid when resident; 0 when invalid
	class uint8
	dirty uint8
	// ord is meaningful in way 0 of a 4-way set only: the set's
	// recency list (see list), kept in the host cache line the probe
	// loads anyway. Fills and invalidations write the other fields one
	// by one so that way 0's ord survives.
	ord uint8
	_   uint8
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
	name  string
	lines []line
	// sets views lines as [4]line groups when the cache is 4-way (nil
	// otherwise), for the run kernels: one bounds check reaches a set.
	sets [][4]line
	// lists holds each set's recency list when the cache is not 4-way
	// (nil otherwise: a 4-way set keeps its list in way 0's ord).
	lists     []uint32
	ways      int
	rankBits  uint // bits per rank in a recency list
	lineShift uint
	setMask   uint32
	stats     Stats
	// hist is a 4-way run's victim histogram (see flushRun), zero
	// between runs.
	hist [16]uint64
}

// maxWays bounds the associativity so a recency list of 3-bit ranks
// fits in a uint32.
const maxWays = 8

// New builds a cache of the given total size, associativity (at most
// 8 ways) and line size. Size must be ways*lineSize*2^k for some k.
//
//mmutricks:free construction happens outside any measured window
func New(name string, size, ways, lineSize int) *Cache {
	if size <= 0 || ways <= 0 || lineSize <= 0 {
		panic("cache: non-positive geometry")
	}
	if ways > maxWays {
		panic(fmt.Sprintf("cache %s: %d ways exceeds the maximum of %d", name, ways, maxWays))
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
	c := &Cache{
		name:      name,
		lines:     make([]line, nlines),
		ways:      ways,
		rankBits:  uint(bits.Len(uint(ways - 1))),
		lineShift: shift,
		setMask:   uint32(nsets - 1),
	}
	if ways == 4 {
		c.sets = unsafe.Slice((*[4]line)(unsafe.Pointer(&c.lines[0])), nsets)
	} else {
		c.lists = make([]uint32, nsets)
	}
	c.InvalidateAll()
	return c
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
	if c.ways != 4 {
		return c.accessOther(set, tag, class, write)
	}
	want := tag | lineKeyValid
	q := &c.sets[set]
	if wi := probe4(q, want); wi >= 0 {
		hit4(q, wi&3, dirtyOf(write))
		return true, false
	}
	c.stats.Misses[class]++
	c.stats.Fills[class]++
	v, valid := fill4(q, want, class, dirtyOf(write))
	c.evicted(v, valid, class)
	return false, v&1 != 0
}

// accessOther is Access's probe and fill on the geometries other than
// 4-way: the direct-mapped L2 and test caches. Keeping it out of Access
// keeps the 4-way path's register pressure down.
//
//mmutricks:noalloc
func (c *Cache) accessOther(set int, tag uint32, class Class, write bool) (hit, castout bool) {
	want := tag | lineKeyValid
	lines := c.setLines(set)
	for i := range lines {
		if lines[i].key == want {
			lines[i].dirty |= dirtyOf(write)
			c.touch(set, i)
			return true, false
		}
	}
	c.stats.Misses[class]++
	return false, c.fill(set, tag, class, write)
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
	for i := range lines {
		if lines[i].key == want {
			if write {
				lines[i].dirty = 1
			}
			c.touch(set, i)
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
	for i := range lines {
		if lines[i].key == want {
			lines[i].dirty = 1
			c.touch(set, i)
			return false
		}
	}
	// Counts as an access but not a (latency-bearing) miss: the fill
	// needs no memory read.
	return c.install(set, tag, class, true)
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

// skip advances the lanes past the next k references.
//
//mmutricks:noalloc
func (l storeLanes) skip(k int) storeLanes {
	return storeLanes(bits.RotateLeft64(uint64(l), -k))
}

// take consumes the next k ≥ 1 references, which all land on one line:
// the line ends dirty iff any of them stores.
//
//mmutricks:noalloc
func (l storeLanes) take(k int) (dirty uint8, rest storeLanes) {
	if uint64(l)&(1<<min(k, 4)-1) != 0 {
		dirty = 1
	}
	return dirty, l.skip(k)
}

// MissRef records one missing reference within a run: the index of the
// reference in the run and whether its fill cast out a dirty victim.
type MissRef struct {
	Index   int32
	Castout bool
}

// AccessRun performs n equally-strided accesses (pa, pa+stride, ...)
// on behalf of class, reference i storing iff st.At(i), exactly as n
// scalar Access calls would: same counters, same final recency/dirty
// state, same eviction attribution. Consecutive references landing on
// one line collapse into a single recency update (repeated hits on the
// most recent way leave the list unchanged), and the line ends dirty
// iff any of them stores.
// Missing references are recorded in misses, in reference order, so the
// machine layer can charge fills and emit trace events at the right
// points; the caller's buffer must hold one entry per distinct line
// the run can touch.
//
//mmutricks:free misses are returned; the machine layer charges the fills
//mmutricks:noalloc
func (c *Cache) AccessRun(pa arch.PhysAddr, n, stride int, class Class, st Stores, misses []MissRef) (nmiss int) {
	nmiss, _ = c.accessRun(pa, n, stride, class, st, misses)
	return nmiss
}

// AccessRunCount is AccessRunCountMask for a pure load or store run.
//
//mmutricks:free miss/castout counts are returned; the machine layer charges them
//mmutricks:noalloc
func (c *Cache) AccessRunCount(pa arch.PhysAddr, n, stride int, class Class, write bool) (nmiss, ncast int) {
	return c.accessRun(pa, n, stride, class, StoresOf(write), nil)
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
	return c.accessRun(pa, n, stride, class, st, nil)
}

// accessRun is AccessRun and AccessRunCountMask: misses == nil counts
// the misses without recording them. A 4-way run that stays on one line
// (a one-line fetch, a hash-table probe of one or two PTEs) is one
// scalar Access. Otherwise a stride that is a multiple of the line size
// puts each reference on a line of its own (the dominant shape: the
// 128-line page clear, user touches, I-fetch), and the whole run is one
// line run: hitRun, then lineRun from the first miss. Any other stride
// goes to the grouping of accessGroups.
//
//mmutricks:noalloc
func (c *Cache) accessRun(pa arch.PhysAddr, n, stride int, class Class, st Stores, misses []MissRef) (nmiss, ncast int) {
	if c.ways != 4 {
		// Both L1s are 4-way and the direct-mapped L2 takes only scalar
		// Access, so only test geometries get here: one Access per
		// reference, exact by construction.
		for i := 0; i < n; i++ {
			if hit, castout := c.Access(pa+arch.PhysAddr(i*stride), class, st.At(i)); !hit {
				if misses != nil {
					misses[nmiss] = MissRef{Index: int32(i), Castout: castout}
				}
				nmiss++
				if castout {
					ncast++
				}
			}
		}
		return nmiss, ncast
	}
	shift := c.lineShift
	la := uint32(pa) >> shift
	if n > 0 && uint32(pa+arch.PhysAddr((n-1)*stride))>>shift == la {
		// The run stays on one line: its first reference is a scalar
		// Access that stores iff any reference does, and the rest hit.
		dirty, _ := st.lanes().take(n)
		c.stats.Accesses[class] += uint64(n - 1)
		if hit, castout := c.Access(pa, class, dirty != 0); !hit {
			if misses != nil {
				misses[0] = MissRef{Castout: castout}
			}
			if castout {
				return 1, 1
			}
			return 1, 0
		}
		return 0, 0
	}
	c.stats.Accesses[class] += uint64(n)
	if sl := st.lanes(); stride&(1<<shift-1) == 0 {
		step := uint32(stride >> shift)
		if rest := hitRun(c.sets, la, step, sl, n); rest > 0 {
			nmiss = c.lineRun(la, step, n-rest, n, class, sl, misses)
		}
	} else {
		nmiss = c.accessGroups(pa, n, stride, class, sl, misses)
	}
	if nmiss == 0 {
		return 0, 0
	}
	return nmiss, c.flushRun(class, nmiss)
}

// A line run alternates between two out-of-line kernels: hitRun
// advances while references hit, fillRun while they miss. A single
// loop doing both kept more values live than amd64 has registers and
// stored and reloaded its loop-carried ones (the line address, the
// store lanes, the miss count, the slice bounds) on every reference.
// Each kernel's loop carries only the next line's key, the store lanes
// (rotated by one each reference) and the count left, plus for fillRun
// the castout bits; the sets, the step and, for fillRun, the class and
// the victim histogram are read-only. The kernels are not inlined, so
// no caller's values add to their pressure; hit4 inlines into hitRun,
// and probe4 and fill4 into fillRun.
//
// A run counts its victims in c.hist, indexed by the victim's
// class<<1|dirty, one increment per resident victim; flushRun adds it
// to the statistics once, after the run, and clears it. The per-miss
// counter updates are the hottest stores in the simulator, and most
// runs (short kernel-text fetches) miss nowhere and flush nothing.

// lineRun finishes a 4-way run whose references each land on a line of
// their own, line address la onward by step lines, reference k storing
// iff lane k of sl is set, from reference i, which hitRun found
// missing. The misses are recorded in misses unless it is nil.
//
//mmutricks:noalloc
func (c *Cache) lineRun(la, step uint32, i, n int, class Class, sl storeLanes, misses []MissRef) (nmiss int) {
	f := fillState{sets: c.sets, step: step, class: class, hist: &c.hist}
	for i < n {
		left := n - i
		if misses != nil {
			// The castout bits of one fillRun call cover 64 misses.
			left = min(left, 64)
		}
		rest, castouts := fillRun(&f, la+uint32(i)*step, sl.skip(i), left)
		j := i + left - rest
		if misses != nil {
			for k := i; k < j; k++ {
				misses[nmiss] = MissRef{Index: int32(k), Castout: castouts>>(j-1-k)&1 != 0}
				nmiss++
			}
		} else {
			nmiss += j - i
		}
		if j == n {
			break
		}
		i = n - hitRun(c.sets, la+uint32(j)*step, step, sl.skip(j), n-j)
	}
	return nmiss
}

// hitRun advances the n references of a line run (line address la +
// k*step for reference k, storing iff lane k of sl is set) while they
// hit, and returns how many are left from the first missing one on.
//
//go:noinline
//mmutricks:noalloc
func hitRun(sets [][4]line, la, step uint32, sl storeLanes, n int) (rest int) {
	// want+step is the next reference's key: line addresses stay below
	// bit 31, so the valid bit never takes a carry.
	want := la | lineKeyValid
	for ; n > 0; n-- {
		q := &sets[want&uint32(len(sets)-1)]
		d := uint8(sl & 1)
		switch want {
		case q[0].key:
			hit4(q, 0, d)
		case q[1].key:
			hit4(q, 1, d)
		case q[2].key:
			hit4(q, 2, d)
		case q[3].key:
			hit4(q, 3, d)
		default:
			return n
		}
		want += step
		sl = sl.skip(1)
	}
	return n
}

// fillState is what fillRun's loop reads but never changes: read
// through one pointer, it leaves the registers to the values the loop
// changes.
type fillState struct {
	sets  [][4]line
	step  uint32
	class Class
	hist  *[16]uint64
}

// fillRun is hitRun's counterpart: it fills the n references of a line
// run on behalf of f.class while they miss, counting each resident
// victim in f.hist, and returns how many are left from the first
// hitting one on. Bit k of castouts is set iff the k-th miss from the
// last cast out a dirty victim.
//
//go:noinline
//mmutricks:noalloc
func fillRun(f *fillState, la uint32, sl storeLanes, n int) (rest int, castouts uint64) {
	want := la | lineKeyValid
	for ; n > 0; n-- {
		q := &f.sets[want&uint32(len(f.sets)-1)]
		if probe4(q, want) >= 0 {
			break
		}
		dirty := uint8(sl & 1)
		sl = sl.skip(1)
		v, valid := fill4(q, want, f.class, dirty)
		if valid {
			f.hist[v&15]++
		}
		castouts = castouts<<1 | uint64(v&1)
		want += f.step
	}
	return n, castouts
}

// accessGroups advances a 4-way run whose stride is not a multiple of
// the line size by grouping its references by the line they land on
// (the grouping scan is division-free; line-crossing groups are short).
// The misses are recorded in misses unless it is nil.
//
//mmutricks:noalloc
func (c *Cache) accessGroups(pa arch.PhysAddr, n, stride int, class Class, sl storeLanes, misses []MissRef) (nmiss int) {
	shift := c.lineShift
	for i := 0; i < n; {
		a := pa + arch.PhysAddr(i*stride)
		la := uint32(a) >> shift
		k := 1
		for i+k < n && uint32(a+arch.PhysAddr(k*stride))>>shift == la {
			k++
		}
		var dirty uint8
		dirty, sl = sl.take(k)
		nmiss = c.group(la, i, dirty, class, misses, nmiss)
		i += k
	}
	return nmiss
}

// group advances a group of a 4-way run's references that all land on
// line la, reference i the first of them, the line ending dirty iff
// dirty is 1. On a resident line the group is one recency update. On
// any other line its first reference misses and fills and the rest hit
// the fresh line, which the fill already made the most recent; the
// victim is counted in c.hist and the miss recorded at misses[nmiss]
// unless misses is nil. It returns the run's miss count so far.
//
//mmutricks:noalloc
func (c *Cache) group(la uint32, i int, dirty uint8, class Class, misses []MissRef, nmiss int) int {
	q := &c.sets[la&c.setMask]
	want := la | lineKeyValid
	if wi := probe4(q, want); wi >= 0 {
		hit4(q, wi&3, dirty)
		return nmiss
	}
	v, valid := fill4(q, want, class, dirty)
	if valid {
		c.hist[v&15]++
	}
	if misses != nil {
		misses[nmiss] = MissRef{Index: int32(i), Castout: v&1 != 0}
	}
	return nmiss + 1
}

// flushRun adds a 4-way run's misses, fills and victim histogram to the
// statistics, clears the histogram, and returns the run's castout
// count.
//
//mmutricks:noalloc
func (c *Cache) flushRun(class Class, nmiss int) (ncast int) {
	if nmiss == 0 {
		return 0
	}
	c.stats.Misses[class] += uint64(nmiss)
	c.stats.Fills[class] += uint64(nmiss)
	for v := 0; v < int(numClasses); v++ {
		clean, dirty := c.hist[v<<1], c.hist[v<<1+1]
		c.stats.EvictedBy[v][class] += clean + dirty
		c.stats.Castouts[v] += dirty
		ncast += int(dirty)
	}
	c.hist = [16]uint64{}
	return ncast
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
		set := int(la & c.setMask)
		lines := c.setLines(set)
		want := la | lineKeyValid
		way := -1
		for w := range lines {
			if lines[w].key == want {
				way = w
				break
			}
		}
		if way >= 0 {
			lines[way].dirty |= dirty
			c.touch(set, way)
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
	for i := range lines {
		if lines[i].key == want {
			c.touch(set, i)
			return false
		}
	}
	c.install(set, tag, class, false)
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
	for i := range lines {
		if lines[i].key == want {
			c.touch(set, i)
			return
		}
	}
	c.install(set, tag, class, false)
}

// probe4 returns the way of the 4-way set q holding want, or -1.
//
//mmutricks:noalloc
func probe4(q *[4]line, want uint32) int {
	switch want {
	case q[0].key:
		return 0
	case q[1].key:
		return 1
	case q[2].key:
		return 2
	case q[3].key:
		return 3
	}
	return -1
}

// hit4 records a hit on way w of the 4-way set q: the line ends dirty
// if d is 1, and the way becomes the most recent. hitRun calls it with
// a constant way, one call per case of its probe, so that each inlined
// copy addresses the line and the recency table at fixed offsets;
// Access and group call it with probe4's way.
//
//mmutricks:noalloc
func hit4(q *[4]line, w int, d uint8) {
	q[w].dirty |= d
	q[0].ord = touchTab[q[0].ord][w]
}

// fill4 installs want in the 4-way set q on behalf of class, replacing
// the way at rank 0 of the set's recency list and making it the most
// recent. It returns the victim's class<<1|dirty and whether the victim
// was resident. An invalid way's class and dirty are 0, so victim&1 is
// the castout either way.
//
//mmutricks:noalloc
func fill4(q *[4]line, want uint32, class Class, dirty uint8) (victim uint8, valid bool) {
	o := q[0].ord
	vi := o & 3
	q[0].ord = o>>2 | vi<<6
	valid = q[vi].key&lineKeyValid != 0
	victim = q[vi].class<<1 | q[vi].dirty
	q[vi].key, q[vi].class, q[vi].dirty = want, uint8(class), dirty
	return victim, valid
}

// evicted counts one fill's victim, as fill4 returned it, against the
// filling class.
//
//mmutricks:noalloc
func (c *Cache) evicted(victim uint8, valid bool, class Class) {
	if valid {
		c.stats.EvictedBy[victim>>1][class]++
		c.stats.Castouts[victim>>1] += uint64(victim & 1)
	}
}

// dirtyOf is a line's dirty byte after an access that stores or not.
//
//mmutricks:noalloc
func dirtyOf(write bool) uint8 {
	if write {
		return 1
	}
	return 0
}

// install is the fill of the one-line paths outside Access (ZeroLine,
// Prefetch, Touch): fill4 on a 4-way cache, fill on any other. It
// reports whether the victim was dirty.
//
//mmutricks:noalloc
func (c *Cache) install(set int, tag uint32, class Class, write bool) (castout bool) {
	if c.ways != 4 {
		return c.fill(set, tag, class, write)
	}
	c.stats.Fills[class]++
	v, valid := fill4(&c.sets[set], tag|lineKeyValid, class, dirtyOf(write))
	c.evicted(v, valid, class)
	return v&1 != 0
}

// fill installs a line as the set's most recently used, replacing the
// way at rank 0 of its recency list. It reports whether the victim was
// dirty (requiring a writeback). It serves the geometries other than
// 4-way (the direct-mapped L2 and test caches); every 4-way path fills
// through fill4.
//
//mmutricks:noalloc
func (c *Cache) fill(set int, tag uint32, class Class, write bool) (castout bool) {
	c.stats.Fills[class]++
	lines := c.setLines(set)
	l := c.list(set)
	vi := int(l & (1<<c.rankBits - 1))
	v := &lines[vi]
	if v.key&lineKeyValid != 0 {
		c.stats.EvictedBy[v.class][class]++
		castout = v.dirty != 0
		if castout {
			c.stats.Castouts[v.class]++
		}
	}
	v.key, v.class, v.dirty = tag|lineKeyValid, uint8(class), dirtyOf(write)
	c.setList(set, l>>c.rankBits|uint32(vi)<<(c.rankBits*uint(c.ways-1)))
	return castout
}

// Recency. Each set keeps a recency list: rank r names the way that is
// r-th least recently used, c.rankBits bits per rank, rank 0 in the low
// bits. Invalid ways sit at the lowest ranks in ascending way order, so
// rank 0 is the replacement rule in one field: the first invalid way,
// or, in a full set, the least recently used one. A fill shifts rank 0
// out and its way in at the top; a hit moves its way to the top; an
// invalidation sinks its way among the invalid ones.
//
// A 4-way set's list is one byte of four 2-bit ranks in way 0's ord, so
// it shares the host cache line the probe has just loaded, and a hit is
// one touchTab lookup. Other geometries (the direct-mapped L2, test
// caches) keep their lists in c.lists.

// list returns set's recency list.
//
//mmutricks:noalloc
func (c *Cache) list(set int) uint32 {
	if c.lists == nil {
		return uint32(c.lines[set*4].ord)
	}
	return c.lists[set]
}

// setList replaces set's recency list.
//
//mmutricks:noalloc
func (c *Cache) setList(set int, l uint32) {
	if c.lists == nil {
		c.lines[set*4].ord = uint8(l)
		return
	}
	c.lists[set] = l
}

// touch makes way the most recently used of set.
//
//mmutricks:noalloc
func (c *Cache) touch(set, way int) {
	if c.lists == nil {
		o := &c.lines[set*4].ord
		*o = touchTab[*o][way&3]
		return
	}
	c.lists[set] = promote(c.lists[set], way, c.ways, c.rankBits)
}

// promote returns the list l of k ways, b bits per rank, with way w
// moved to the top rank and the ranks above it shifted down one.
//
//mmutricks:noalloc
func promote(l uint32, w, k int, b uint) uint32 {
	m := uint32(1)<<b - 1
	r := uint(0)
	for r < uint(k-1) && l>>(r*b)&m != uint32(w) {
		r++
	}
	return l&(1<<(r*b)-1) | l>>((r+1)*b)<<(r*b) | uint32(w)<<(uint(k-1)*b)
}

// touchTab[o][w] is promote(o, w, 4, 2): a 4-way hit's list update.
var touchTab = func() (t [256][4]uint8) {
	for o := range t {
		for w := range t[o] {
			t[o][w] = uint8(promote(uint32(o), w, 4, 2))
		}
	}
	return t
}()

// sink returns set's list with way w, just invalidated, moved down to
// its place among the invalid ways: above those with a lower index,
// below every other way.
//
//mmutricks:noalloc
func (c *Cache) sink(set, w int) uint32 {
	b, top := c.rankBits, c.rankBits*uint(c.ways-1)
	rest := promote(c.list(set), w, c.ways, b) & (1<<top - 1)
	p := uint(0)
	for _, l := range c.setLines(set)[:w] {
		if l.key&lineKeyValid == 0 {
			p++
		}
	}
	return rest&(1<<(p*b)-1) | uint32(w)<<(p*b) | rest>>(p*b)<<((p+1)*b)
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
	var id uint32
	for w := 0; w < c.ways; w++ {
		id |= uint32(w) << (uint(w) * c.rankBits)
	}
	for set := 0; set < c.Sets(); set++ {
		c.setList(set, id)
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
			lines[i].key, lines[i].class, lines[i].dirty = 0, 0, 0
			c.setList(set, c.sink(set, i))
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
