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

// Zombies classifies VSIDs as belonging to abandoned contexts (the
// kernel implements it). A nil Zombies counts none as abandoned.
type Zombies interface {
	ZombieVSID(v arch.VSID) bool
}

// HTAB is the PowerPC hashed page table: groups (PTEGs) of eight PTEs,
// searched with the primary hash and then the secondary hash. It lives
// at a physical address, and every search/insert/flush step performs a
// bus access there so the table's cache behaviour is simulated, not
// assumed.
type HTAB struct {
	// groups is a power of two (NewHTAB checks), so group indexes wrap
	// with a mask.
	groups int
	// ptes holds the whole table flat, group-major, as the hardware
	// lays it out: group g is ptes[g*PTEGSize:][:PTEGSize] (see bucket).
	// Each entry is one 8-byte word, so a group fills one 64-byte host
	// cache line.
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
func (h *HTAB) EntryAddr(group, slot int) arch.PhysAddr {
	return h.base + arch.PhysAddr((group*arch.PTEGSize+slot)*arch.PTEBytes)
}

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
// host reads with no bus side effects, so hoisting the touches into
// one run leaves the bus operation sequence unchanged.
func (h *HTAB) touchRun(bus Bus, group, slot, n int, write bool) {
	if bus == nil || n <= 0 {
		return
	}
	if rb, ok := bus.(runBus); ok {
		rb.MemAccessRun(h.EntryAddr(group, slot), n, arch.PTEBytes, cache.ClassHashTable, h.inhibited, write)
		return
	}
	for i := 0; i < n; i++ {
		h.touch(bus, group, slot+i, write)
	}
}

// Search performs the architected table search: up to eight entries in
// the primary bucket, then up to eight in the secondary. It returns the
// matching slot (nil if absent) and the number of PTE memory accesses
// performed — up to the 16 the paper cites. The match slot is computed
// first (compares are free), then the touches up to and including it
// are issued as one run — the same addresses in the same order as the
// scalar touch-then-compare loop.
func (h *HTAB) Search(vpn arch.VPN, bus Bus) (pte *arch.PTE, primary bool, accesses int) {
	pg := arch.HashPrimary(vpn, h.groups)
	pb, key := h.bucket(pg), arch.Key(vpn, false)
	for s := range pb {
		if pb[s].Matches(key) {
			h.touchRun(bus, pg, 0, s+1, false)
			return &pb[s], true, s + 1
		}
	}
	h.touchRun(bus, pg, 0, arch.PTEGSize, false)
	accesses = arch.PTEGSize
	sg := arch.HashSecondary(vpn, h.groups)
	sb, key := h.bucket(sg), arch.Key(vpn, true)
	for s := range sb {
		if sb[s].Matches(key) {
			h.touchRun(bus, sg, 0, s+1, false)
			return &sb[s], false, accesses + s + 1
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
func (h *HTAB) Insert(vpn arch.VPN, rpn arch.PFN, inhibited bool, bus Bus, zombie Zombies) (InsertOutcome, int) {
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
			if !b[s].Valid() {
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
	if zombie != nil && zombie.ZombieVSID(victim.VSID()) {
		return InsertEvictZombie, accesses
	}
	return InsertEvictLive, accesses
}

func (h *HTAB) place(g, s int, vpn arch.VPN, rpn arch.PFN, inhibited, hash bool) {
	h.bucket(g)[s] = arch.NewPTE(vpn, rpn, hash, inhibited)
}

// BucketsFull reports whether both buckets an insert for vpn could use
// are entirely valid — i.e. the insert would have to evict. Probing is
// free (used by policy decisions before the charged insert).
func (h *HTAB) BucketsFull(vpn arch.VPN) bool {
	for _, g := range []int{arch.HashPrimary(vpn, h.groups), arch.HashSecondary(vpn, h.groups)} {
		for _, e := range h.bucket(g) {
			if !e.Valid() {
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
	*pte = pte.WithValid(false)
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
func (h *HTAB) ReclaimScan(start, n int, bus Bus, zombie Zombies) (next, reclaimed int) {
	if zombie == nil {
		return start, 0
	}
	// Groups with nothing to reclaim — the overwhelmingly common case
	// in steady state — are a pure read sweep. A stretch of them is
	// contiguous in memory up to the wrap at group 0, so it goes out as
	// one run of touches: the clean groups from group run on are
	// pending until a group with a zombie (which keeps the scalar loop:
	// its read/write interleaving must be preserved), the wrap, or the
	// end of the sweep.
	run, clean := start&(h.groups-1), 0
	for i := 0; i < n; i++ {
		g := (start + i) & (h.groups - 1)
		if g == 0 {
			h.touchRun(bus, run, 0, clean*arch.PTEGSize, false)
			run, clean = 0, 0
		}
		b := h.bucket(g)
		hasZombie := false
		for s := range b {
			if b[s].Valid() && zombie.ZombieVSID(b[s].VSID()) {
				hasZombie = true
				break
			}
		}
		if !hasZombie {
			clean++
			continue
		}
		h.touchRun(bus, run, 0, clean*arch.PTEGSize, false)
		run, clean = g+1, 0
		for s := range b {
			h.touch(bus, g, s, false)
			e := &b[s]
			if e.Valid() && zombie.ZombieVSID(e.VSID()) {
				*e = e.WithValid(false)
				h.touch(bus, g, s, true)
				reclaimed++
			}
		}
	}
	h.touchRun(bus, run, 0, clean*arch.PTEGSize, false)
	return (start + n) & (h.groups - 1), reclaimed
}

// ForEachValid calls fn for every valid PTE in the table, in bucket
// order; fn returning false stops the walk.
func (h *HTAB) ForEachValid(fn func(vpn arch.VPN, rpn arch.PFN) bool) {
	for _, e := range h.ptes {
		if e.Valid() {
			if !fn(e.VPN(), e.RPN()) {
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
	for _, e := range h.ptes {
		if e.Valid() {
			n++
		}
	}
	return n
}

// LiveOccupancy returns how many valid PTEs belong to live contexts.
func (h *HTAB) LiveOccupancy(zombie Zombies) int {
	n := 0
	for _, e := range h.ptes {
		if e.Valid() && (zombie == nil || !zombie.ZombieVSID(e.VSID())) {
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
			if e.Valid() {
				n++
			}
		}
		hist.Add(n)
	}
	return hist
}
