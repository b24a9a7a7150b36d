package ppc

import (
	"fmt"

	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
	"mmutricks/internal/hwmon"
)

// InsertOutcome classifies what an HTAB insert displaced.
type InsertOutcome int

const (
	// InsertFreeSlot: an invalid slot was found; nothing displaced.
	InsertFreeSlot InsertOutcome = iota
	// InsertEvictLive: a valid PTE belonging to a live context was
	// replaced.
	InsertEvictLive
	// InsertEvictZombie: a valid PTE whose VSID belongs to an
	// abandoned context was replaced.
	InsertEvictZombie
)

// HTAB is the PowerPC hashed page table: groups (PTEGs) of eight PTEs,
// searched with the primary hash and then the secondary hash. It lives
// at a physical address, and every search/insert/flush step performs a
// bus access there so the table's cache behaviour is simulated, not
// assumed.
type HTAB struct {
	groups int
	// ptes holds the whole table flat, group-major, as the hardware
	// lays it out: group g is ptes[g*PTEGSize:][:PTEGSize] (see bucket).
	ptes []arch.PTE
	base arch.PhysAddr
	// inhibited marks the table cache-inhibited (§8's proposed fix:
	// don't let page-table walks pollute the cache).
	inhibited bool
	// rr is the rotating replacement cursor implementing the paper's
	// "choose an arbitrary PTE to replace" policy deterministically.
	rr int
}

// NewHTAB builds a hash table with the given group count at the given
// physical base. groups must be a power of two.
func NewHTAB(groups int, base arch.PhysAddr) *HTAB {
	if groups <= 0 || groups&(groups-1) != 0 {
		panic(fmt.Sprintf("ppc: HTAB group count %d not a power of two", groups))
	}
	return &HTAB{groups: groups, ptes: make([]arch.PTE, groups*arch.PTEGSize), base: base}
}

// bucket returns group g's eight PTEs, capped so no append or reslice
// can reach the next group.
//
//mmutricks:noalloc
func (h *HTAB) bucket(g int) []arch.PTE {
	i := g * arch.PTEGSize
	return h.ptes[i : i+arch.PTEGSize : i+arch.PTEGSize]
}

// Groups returns the PTEG count.
func (h *HTAB) Groups() int { return h.groups }

// Capacity returns the total PTE capacity.
func (h *HTAB) Capacity() int { return h.groups * arch.PTEGSize }

// SetInhibited marks the table's storage cache-inhibited (or not).
func (h *HTAB) SetInhibited(v bool) { h.inhibited = v }

// EntryAddr returns the physical address of a PTE, so accesses to it
// can be charged through the cache.
//
//mmutricks:noalloc
func (h *HTAB) EntryAddr(group, slot int) arch.PhysAddr {
	return h.base + arch.PhysAddr((group*arch.PTEGSize+slot)*arch.PTEBytes)
}

//mmutricks:noalloc
func (h *HTAB) touch(bus Bus, group, slot int, write bool) {
	if bus != nil {
		bus.MemAccess(h.EntryAddr(group, slot), cache.ClassHashTable, h.inhibited, write)
	}
}

// runBus is optionally implemented by buses (machine.Machine) that can
// simulate a batch of equally-strided accesses in one call with
// observable behaviour identical to the equivalent scalar loop.
type runBus interface {
	MemAccessRun(pa arch.PhysAddr, n, stride int, class cache.Class, inhibited, write bool)
}

// touchRun performs n consecutive-slot touches starting at slot. The
// PTE compares interleaved with touches in the scalar loops are free
// struct reads with no bus side effects, so hoisting the touches into
// one run leaves the bus operation sequence unchanged.
//
//mmutricks:noalloc
func (h *HTAB) touchRun(bus Bus, group, slot, n int, write bool) {
	if bus == nil || n <= 0 {
		return
	}
	if rb, ok := bus.(runBus); ok {
		rb.MemAccessRun(h.EntryAddr(group, slot), n, arch.PTEBytes, cache.ClassHashTable, h.inhibited, write) //mmutricks:noalloc-ok interface batch entry proven at its machine.Machine implementation
		return
	}
	for i := 0; i < n; i++ {
		h.touch(bus, group, slot+i, write)
	}
}

// Search performs the architected table search: up to eight entries in
// the primary bucket, then up to eight in the secondary. It returns the
// matching PTE (nil if absent) and the number of PTE memory accesses
// performed — up to the 16 the paper cites. The match slot is computed
// first (compares are free), then the touches up to and including it
// are issued as one run — the same addresses in the same order as the
// scalar touch-then-compare loop.
//
//mmutricks:noalloc
func (h *HTAB) Search(vpn arch.VPN, bus Bus) (pte *arch.PTE, primary bool, accesses int) {
	pg := arch.HashPrimary(vpn, h.groups)
	pb := h.bucket(pg)
	for s := range pb {
		if e := &pb[s]; e.Matches(vpn) && !e.Hash {
			h.touchRun(bus, pg, 0, s+1, false)
			return e, true, s + 1
		}
	}
	h.touchRun(bus, pg, 0, arch.PTEGSize, false)
	accesses = arch.PTEGSize
	sg := arch.HashSecondary(vpn, h.groups)
	sb := h.bucket(sg)
	for s := range sb {
		if e := &sb[s]; e.Matches(vpn) && e.Hash {
			h.touchRun(bus, sg, 0, s+1, false)
			return e, false, accesses + s + 1
		}
	}
	h.touchRun(bus, sg, 0, arch.PTEGSize, false)
	return nil, false, accesses + arch.PTEGSize
}

// Insert installs a PTE for vpn. It looks for an invalid slot in the
// primary bucket, then the secondary bucket; if both are full it
// replaces an arbitrary entry (rotating cursor), without regard to
// whether the victim is live or zombie — exactly the non-optimal
// replacement the paper describes in §7. zombie classifies a VSID as
// belonging to an abandoned context (may be nil). The returned access
// count covers finding the slot.
func (h *HTAB) Insert(vpn arch.VPN, rpn arch.PFN, inhibited bool, bus Bus, zombie func(arch.VSID) bool) (InsertOutcome, int) {
	accesses := 0
	pg := arch.HashPrimary(vpn, h.groups)
	sg := arch.HashSecondary(vpn, h.groups)
	// Pass 1: a free slot in either bucket. The free slot is found with
	// free compares first, then the reads up to and including it go out
	// as one run (same bus sequence as the scalar interleaving).
	for _, loc := range []struct {
		g    int
		hash bool
	}{{pg, false}, {sg, true}} {
		b := h.bucket(loc.g)
		for s := range b {
			if !b[s].Valid {
				h.touchRun(bus, loc.g, 0, s+1, false)
				accesses += s + 1
				h.place(loc.g, s, vpn, rpn, inhibited, loc.hash)
				h.touch(bus, loc.g, s, true) // the store
				return InsertFreeSlot, accesses + 1
			}
		}
		h.touchRun(bus, loc.g, 0, arch.PTEGSize, false)
		accesses += arch.PTEGSize
	}
	// Pass 2: both buckets full — replace an arbitrary slot.
	h.rr++
	pick := h.rr % (2 * arch.PTEGSize)
	g, hash := pg, false
	if pick >= arch.PTEGSize {
		g, hash = sg, true
		pick -= arch.PTEGSize
	}
	victim := h.bucket(g)[pick]
	h.place(g, pick, vpn, rpn, inhibited, hash)
	h.touch(bus, g, pick, true)
	accesses++
	if zombie != nil && zombie(victim.VSID) {
		return InsertEvictZombie, accesses
	}
	return InsertEvictLive, accesses
}

func (h *HTAB) place(g, s int, vpn arch.VPN, rpn arch.PFN, inhibited, hash bool) {
	h.bucket(g)[s] = arch.PTE{
		Valid: true, VSID: vpn.VSID(), API: vpn.PageIndex(),
		Hash: hash, RPN: rpn, R: true, CacheInhibited: inhibited,
	}
}

// BucketsFull reports whether both buckets an insert for vpn could use
// are entirely valid — i.e. the insert would have to evict. Probing is
// free (used by policy decisions before the charged insert).
func (h *HTAB) BucketsFull(vpn arch.VPN) bool {
	for _, g := range []int{arch.HashPrimary(vpn, h.groups), arch.HashSecondary(vpn, h.groups)} {
		for _, e := range h.bucket(g) {
			if !e.Valid {
				return false
			}
		}
	}
	return true
}

// FlushVPN invalidates the PTE for vpn, searching both buckets — the
// up-to-16-access cost that makes eager range flushing so expensive
// (§7). It reports whether an entry was found and how many accesses the
// search took.
func (h *HTAB) FlushVPN(vpn arch.VPN, bus Bus) (found bool, accesses int) {
	pte, _, accesses := h.Search(vpn, bus)
	if pte == nil {
		return false, accesses
	}
	pte.Valid = false
	accesses++ // the invalidating store
	if bus != nil {
		// Charge the store against the group the entry lives in; the
		// search already brought the line in, so this mostly hits.
		bus.MemAccess(h.base, cache.ClassHashTable, h.inhibited, true)
	}
	return true, accesses
}

// ReclaimScan is the idle task's zombie sweep (§7): scan n groups
// starting at group `start`, clearing the valid bit of every PTE whose
// VSID the kernel marks zombie. It returns the next start position and
// the number of PTEs reclaimed. Scanning reads each PTE (one access)
// and writes back reclaimed ones (one more).
func (h *HTAB) ReclaimScan(start, n int, bus Bus, zombie func(arch.VSID) bool) (next, reclaimed int) {
	if zombie == nil {
		return start, 0
	}
	for i := 0; i < n; i++ {
		g := (start + i) % h.groups
		b := h.bucket(g)
		// Groups with nothing to reclaim — the overwhelmingly common
		// case in steady state — are a pure read sweep, so the eight
		// touches collapse into one run. A group with a zombie keeps the
		// scalar loop: its read/write interleaving must be preserved.
		clean := true
		for s := range b {
			if b[s].Valid && zombie(b[s].VSID) {
				clean = false
				break
			}
		}
		if clean {
			h.touchRun(bus, g, 0, arch.PTEGSize, false)
			continue
		}
		for s := range b {
			h.touch(bus, g, s, false)
			e := &b[s]
			if e.Valid && zombie(e.VSID) {
				e.Valid = false
				h.touch(bus, g, s, true)
				reclaimed++
			}
		}
	}
	return (start + n) % h.groups, reclaimed
}

// ForEachValid calls fn for every valid PTE in the table, in bucket
// order; fn returning false stops the walk.
func (h *HTAB) ForEachValid(fn func(vpn arch.VPN, rpn arch.PFN) bool) {
	for i := range h.ptes {
		if e := &h.ptes[i]; e.Valid {
			if !fn(e.VPN(), e.RPN) {
				return
			}
		}
	}
}

// InvalidateAll clears the whole table (boot / full flush).
func (h *HTAB) InvalidateAll() {
	clear(h.ptes)
}

// Occupancy returns the number of valid PTEs (live + zombie) — the
// paper's 600–700 vs 1400–2200 out of 16384 measurements.
func (h *HTAB) Occupancy() int {
	n := 0
	for i := range h.ptes {
		if h.ptes[i].Valid {
			n++
		}
	}
	return n
}

// LiveOccupancy returns how many valid PTEs belong to live contexts.
func (h *HTAB) LiveOccupancy(zombie func(arch.VSID) bool) int {
	n := 0
	for i := range h.ptes {
		if e := &h.ptes[i]; e.Valid && (zombie == nil || !zombie(e.VSID)) {
			n++
		}
	}
	return n
}

// OccupancyHistogram returns the distribution of valid-PTEs-per-bucket
// (0..8) used to find hash hot spots when tuning the VSID scatter
// constant (§5.2).
func (h *HTAB) OccupancyHistogram() *hwmon.Histogram {
	hist := hwmon.NewHistogram(arch.PTEGSize + 1)
	for g := 0; g < h.groups; g++ {
		n := 0
		for _, e := range h.bucket(g) {
			if e.Valid {
				n++
			}
		}
		hist.Add(n)
	}
	return hist
}
