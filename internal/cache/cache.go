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

// line is one cache line's state, packed to 8 bytes so a 4-way set
// occupies 32 bytes of one host cache line.
type line struct {
	key   uint32 // tag | lineKeyValid when resident; 0 when invalid
	class uint8
	dirty uint8
	// ord, in way 0 only, is the set's recency list (see promote), kept
	// in the host cache line the probe loads anyway. Fills and
	// invalidations write the other fields one by one to preserve it.
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

// Ways is the associativity of every cache: the 603's and 604's L1s
// are both 4-way (16 KB and 32 KB per side), so 4-way is the only
// geometry built.
const Ways = 4

// Cache is one 4-way set-associative L1 cache (instruction or data).
// One bounds-checked slice index reaches any set, with no per-set
// pointer chase on the hot path.
type Cache struct {
	name      string
	sets      [][4]line
	lineShift uint
	setMask   uint32
	stats     Stats
	// hist is a run's victim histogram (see flushRun), zero between
	// runs.
	hist [16]uint64
}

// New builds a cache of the given total size, associativity and line
// size. ways must be 4 and size 4*lineSize*2^k for some k.
//
//mmutricks:free construction happens outside any measured window
func New(name string, size, ways, lineSize int) *Cache {
	if size <= 0 || lineSize <= 0 {
		panic("cache: non-positive geometry")
	}
	if ways != Ways {
		panic(fmt.Sprintf("cache %s: %d ways (the cache is %d-way)", name, ways, Ways))
	}
	nsets := size / lineSize / Ways
	if nsets*Ways*lineSize != size || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("cache %s: invalid geometry size=%d line=%d", name, size, lineSize))
	}
	shift := uint(0)
	for 1<<shift < lineSize {
		shift++
	}
	c := &Cache{
		name:      name,
		sets:      make([][4]line, nsets),
		lineShift: shift,
		setMask:   uint32(nsets - 1),
	}
	c.InvalidateAll()
	return c
}

// Name returns the label the cache was created with.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.sets) }

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() int { return 1 << c.lineShift }

// Stats returns a pointer to the live counters.
func (c *Cache) Stats() *Stats { return &c.stats }

// index splits a physical address into set index and tag.
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
func (c *Cache) Access(pa arch.PhysAddr, class Class, write bool) (hit, castout bool) {
	c.stats.Accesses[class]++
	set, tag := c.index(pa)
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

// AccessInhibited performs a cache-inhibited access: it never hits and
// never fills, exactly like a WIMG I=1 access on the real part.
//
//mmutricks:free the caller charges the uncached memory latency
func (c *Cache) AccessInhibited(class Class) {
	c.stats.Inhibited[class]++
}

// AccessNoAlloc performs an access under a locked cache (§10.1): hits
// behave normally, but misses do not allocate — nothing is evicted to
// make room. It returns whether the access hit.
//
//mmutricks:free hit/miss is returned; the machine layer charges it
func (c *Cache) AccessNoAlloc(pa arch.PhysAddr, class Class, write bool) (hit bool) {
	c.stats.Accesses[class]++
	set, tag := c.index(pa)
	q := &c.sets[set]
	if w := probe4(q, tag|lineKeyValid); w >= 0 {
		hit4(q, w&3, dirtyOf(write))
		return true
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
	q := &c.sets[set]
	if w := probe4(q, tag|lineKeyValid); w >= 0 {
		hit4(q, w&3, 1)
		return false
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
func StoresOf(write bool) Stores {
	if write {
		return AllStores
	}
	return NoStores
}

// At reports whether reference i of the run stores.
func (s Stores) At(i int) bool { return s>>(i&3)&1 != 0 }

// From returns the mask of the run's tail starting at reference i.
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

func (s Stores) lanes() storeLanes {
	return storeLanes(uint64(s&AllStores) * 0x1111111111111111)
}

// skip advances the lanes past the next k references.
func (l storeLanes) skip(k int) storeLanes {
	return storeLanes(bits.RotateLeft64(uint64(l), -k))
}

// take consumes the next k ≥ 1 references, which all land on one line:
// the line ends dirty iff any of them stores.
func (l storeLanes) take(k int) (dirty uint8, rest storeLanes) {
	if uint64(l)&(1<<min(k, 4)-1) != 0 {
		dirty = 1
	}
	return dirty, l.skip(k)
}

// AccessRunCount is AccessRunCountMask for a pure load or store run.
//
//mmutricks:free miss/castout counts are returned; the machine layer charges them
func (c *Cache) AccessRunCount(pa arch.PhysAddr, n, stride int, class Class, write bool) (nmiss, ncast int) {
	return c.accessRun(pa, n, stride, class, StoresOf(write))
}

// AccessRunCountMask performs n equally-strided accesses (pa,
// pa+stride, ...) on behalf of class, reference i storing iff st.At(i),
// exactly as n scalar Access calls would: same counters, same final
// recency/dirty state, same eviction attribution. Consecutive
// references landing on one line collapse into a single recency update
// (repeated hits on the most recent way leave the list unchanged), and
// the line ends dirty iff any of them stores. Only the miss and
// castout counts come back: the machine layer charges fills in closed
// form, and a traced run, which must emit each fill where it falls,
// takes the scalar loop instead.
//
//mmutricks:free miss/castout counts are returned; the machine layer charges them
func (c *Cache) AccessRunCountMask(pa arch.PhysAddr, n, stride int, class Class, st Stores) (nmiss, ncast int) {
	return c.accessRun(pa, n, stride, class, st)
}

// accessRun is AccessRunCountMask. A run that stays on one line
// (a one-line fetch, a hash-table probe of one or two PTEs) is one
// scalar Access. Otherwise a stride that is a multiple of the line size
// puts each reference on a line of its own (the dominant shape: the
// 128-line page clear, user touches, I-fetch), and the whole run is one
// line run: hitRun, then lineRun from the first miss. So is a uniform
// run (no store, or all stores) whose stride divides the line (the
// idle task's hash-table sweep): it touches every line from its first
// to its last, each line ending dirty iff the run stores, so it is the
// line run of step 1 over those lines. Any other run, which no caller
// issues, is one Access per reference (accessEach).
func (c *Cache) accessRun(pa arch.PhysAddr, n, stride int, class Class, st Stores) (nmiss, ncast int) {
	if n <= 0 {
		return 0, 0
	}
	shift := c.lineShift
	la := uint32(pa) >> shift
	last := uint32(pa+arch.PhysAddr((n-1)*stride)) >> shift
	var step uint32
	var lines int
	switch {
	case last == la:
		// The run stays on one line: its first reference is a scalar
		// Access that stores iff any reference does, and the rest hit.
		dirty, _ := st.lanes().take(n)
		c.stats.Accesses[class] += uint64(n - 1)
		if hit, castout := c.Access(pa, class, dirty != 0); !hit {
			if castout {
				return 1, 1
			}
			return 1, 0
		}
		return 0, 0
	case stride&(1<<shift-1) == 0:
		step, lines = uint32(stride>>shift), n
	case stride > 0 && stride&(stride-1) == 0 && (st&AllStores == NoStores || st&AllStores == AllStores):
		// A power of two below the line size divides it, so no line
		// between the first and the last is skipped.
		step, lines = 1, int(last-la)+1
	default:
		return c.accessEach(pa, n, stride, class, st)
	}
	c.stats.Accesses[class] += uint64(n)
	sl := st.lanes()
	if rest := hitRun(c.sets, la, step, sl, lines); rest > 0 {
		nmiss = c.lineRun(la, step, lines-rest, lines, class, sl)
	}
	return nmiss, c.flushRun(class, nmiss)
}

// accessEach is a run as one Access per reference, exact by
// construction.
func (c *Cache) accessEach(pa arch.PhysAddr, n, stride int, class Class, st Stores) (nmiss, ncast int) {
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

// A line run alternates between two out-of-line kernels: hitRun
// advances while references hit, fillRun while they miss. A single
// loop doing both kept more values live than amd64 has registers and
// stored and reloaded its loop-carried ones (the line address, the
// store lanes, the miss count, the slice bounds) on every reference.
// Each kernel's loop carries only the next line's key, the store lanes
// (rotated by one each reference) and the count left; the sets, the
// step and, for fillRun, the class and the victim histogram are
// read-only. The kernels are not inlined, so
// no caller's values add to their pressure; hit4 inlines into hitRun,
// and probe4 and fill4 into fillRun.
//
// A run counts its victims in c.hist, indexed by the victim's
// class<<1|dirty, one increment per resident victim; flushRun adds it
// to the statistics once, after the run, and clears it. The per-miss
// counter updates are the hottest stores in the simulator, and most
// runs (short kernel-text fetches) miss nowhere and flush nothing.

// lineRun finishes a run whose references each land on a line of
// their own, line address la onward by step lines, reference k storing
// iff lane k of sl is set, from reference i, which hitRun found
// missing.
func (c *Cache) lineRun(la, step uint32, i, n int, class Class, sl storeLanes) (nmiss int) {
	f := fillState{sets: c.sets, step: step, class: class, hist: &c.hist}
	for i < n {
		j := n - fillRun(&f, la+uint32(i)*step, sl.skip(i), n-i)
		nmiss += j - i
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
// hitting one on.
//
//go:noinline
func fillRun(f *fillState, la uint32, sl storeLanes, n int) (rest int) {
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
		want += f.step
	}
	return n
}

// flushRun adds a run's misses, fills and victim histogram to the
// statistics, clears the histogram, and returns the run's castout
// count.
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

// AccessNoAllocRun is AccessRunCountMask under a locked cache (§10.1):
// hits behave normally, but misses do not allocate, so every reference
// on a non-resident line misses. It returns the miss count.
//
//mmutricks:free the miss count is returned; the machine layer charges the uncached latency
func (c *Cache) AccessNoAllocRun(pa arch.PhysAddr, n, stride int, class Class, st Stores) (nmiss int) {
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
		q := &c.sets[la&c.setMask]
		if w := probe4(q, la|lineKeyValid); w >= 0 {
			hit4(q, w&3, dirty)
		} else {
			c.stats.Misses[class] += uint64(k)
			nmiss += k
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
	q := &c.sets[set]
	if w := probe4(q, tag|lineKeyValid); w >= 0 {
		hit4(q, w&3, 0)
		return false
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
	q := &c.sets[set]
	if w := probe4(q, tag|lineKeyValid); w >= 0 {
		hit4(q, w&3, 0)
		return
	}
	c.install(set, tag, class, false)
}

// probe4 returns the way of the 4-way set q holding want, or -1.
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
// Access calls it with probe4's way.
func hit4(q *[4]line, w int, d uint8) {
	q[w].dirty |= d
	q[0].ord = touchTab[q[0].ord][w]
}

// fill4 installs want in the 4-way set q on behalf of class, replacing
// the way at rank 0 of the set's recency list and making it the most
// recent. It returns the victim's class<<1|dirty and whether the victim
// was resident. An invalid way's class and dirty are 0, so victim&1 is
// the castout either way.
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
func (c *Cache) evicted(victim uint8, valid bool, class Class) {
	if valid {
		c.stats.EvictedBy[victim>>1][class]++
		c.stats.Castouts[victim>>1] += uint64(victim & 1)
	}
}

// dirtyOf is a line's dirty byte after an access that stores or not.
func dirtyOf(write bool) uint8 {
	if write {
		return 1
	}
	return 0
}

// install is the fill of the one-line paths outside Access (ZeroLine,
// Prefetch, Touch). It reports whether the victim was dirty.
func (c *Cache) install(set int, tag uint32, class Class, write bool) (castout bool) {
	c.stats.Fills[class]++
	v, valid := fill4(&c.sets[set], tag|lineKeyValid, class, dirtyOf(write))
	c.evicted(v, valid, class)
	return v&1 != 0
}

// Recency. Each set keeps a recency list in way 0's ord, one byte of
// four 2-bit ranks, so it shares the host cache line the probe has just
// loaded: rank r names the way that is r-th least recently used, rank 0
// in the low bits. Invalid ways sit at the lowest ranks in ascending
// way order, so rank 0 is the replacement rule in one field: the first
// invalid way, or, in a full set, the least recently used one. A fill
// shifts rank 0 out and its way in at the top (fill4); a hit moves its
// way to the top (hit4, one touchTab lookup); an invalidation sinks its
// way among the invalid ones (sink).

// emptyOrd is an empty set's recency list: ways 0 to 3 from rank 0 up.
const emptyOrd = 3<<6 | 2<<4 | 1<<2

// promote returns the recency list l with way w moved to the top rank
// and the ranks above it shifted down one.
func promote(l uint8, w int) uint8 {
	r := uint(0)
	for r < 3 && int(l>>(2*r)&3) != w {
		r++
	}
	return l&(1<<(2*r)-1) | l>>(2*(r+1))<<(2*r) | uint8(w)<<6
}

// touchTab[o][w] is promote(o, w): a hit's list update.
var touchTab = func() (t [256][4]uint8) {
	for o := range t {
		for w := range t[o] {
			t[o][w] = promote(uint8(o), w)
		}
	}
	return t
}()

// sink returns set's list with way w, just invalidated, moved down to
// its place among the invalid ways: above those with a lower index,
// below every other way.
func (c *Cache) sink(set, w int) uint8 {
	q := &c.sets[set]
	rest := promote(q[0].ord, w) & (1<<6 - 1)
	p := uint(0)
	for _, l := range q[:w] {
		if l.key&lineKeyValid == 0 {
			p++
		}
	}
	return rest&(1<<(2*p)-1) | uint8(w)<<(2*p) | rest>>(2*p)<<(2*p+2)
}

// Contains reports whether the line holding pa is currently resident.
func (c *Cache) Contains(pa arch.PhysAddr) bool {
	set, tag := c.index(pa)
	return probe4(&c.sets[set], tag|lineKeyValid) >= 0
}

// InvalidateAll empties the cache (used at machine reset).
//
//mmutricks:free machine reset happens outside any measured window
func (c *Cache) InvalidateAll() {
	for i := range c.sets {
		c.sets[i] = [4]line{{ord: emptyOrd}}
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
func (c *Cache) CorruptCleanLine(rnd uint64, avoid arch.PhysAddr) (victim arch.PhysAddr, ok bool) {
	avoidKey := (uint32(avoid) >> c.lineShift) | lineKeyValid
	start := uint32(rnd) & c.setMask
	for i := range c.sets {
		q := &c.sets[(start+uint32(i))&c.setMask]
		for _, l := range q {
			if l.key&lineKeyValid != 0 && l.dirty == 0 && l.key != avoidKey {
				return arch.PhysAddr(l.key&^lineKeyValid) << c.lineShift, true
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
func (c *Cache) InvalidateLine(pa arch.PhysAddr) bool {
	set, tag := c.index(pa)
	q := &c.sets[set]
	w := probe4(q, tag|lineKeyValid)
	if w < 0 {
		return false
	}
	q[w&3].key, q[w&3].class, q[w&3].dirty = 0, 0, 0
	q[0].ord = c.sink(set, w&3)
	return true
}

// Residency counts resident lines per class — a snapshot of who owns
// the cache, used by the §9 analysis.
func (c *Cache) Residency() map[Class]int {
	m := make(map[Class]int)
	for i := range c.sets {
		for _, l := range c.sets[i] {
			if l.key&lineKeyValid != 0 {
				m[Class(l.class)]++
			}
		}
	}
	return m
}

// DirtyLines counts resident dirty lines — pending writebacks.
func (c *Cache) DirtyLines() int {
	n := 0
	for i := range c.sets {
		for _, l := range c.sets[i] {
			if l.key&lineKeyValid != 0 && l.dirty != 0 {
				n++
			}
		}
	}
	return n
}
