// Package machine assembles one simulated PowerPC computer: a CPU model,
// split L1 instruction/data caches, 32 MB of physical memory holding the
// kernel image and the hashed page table, the MMU, a cycle ledger, and
// the performance-monitor counters. It implements the memory bus the MMU
// charges its table walks through, so every hash-table and page-table
// access has real cache behaviour.
package machine

import (
	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
	"mmutricks/internal/clock"
	"mmutricks/internal/faultinject"
	"mmutricks/internal/hwmon"
	"mmutricks/internal/mmtrace"
	"mmutricks/internal/phys"
	"mmutricks/internal/ppc"
	"mmutricks/internal/telemetry"
)

// Machine is one complete simulated computer.
type Machine struct {
	Model  clock.CPUModel
	Led    *clock.Ledger
	Mon    *hwmon.Counters
	ICache *cache.Cache
	DCache *cache.Cache
	Mem    *phys.Memory
	MMU    *ppc.MMU
	// Trc is the machine's one instrumentation point: its typed calls
	// bump Mon's counters whether or not it records events, and it owns
	// the phase ledger (Trc.Phases(): cycle attribution and interval
	// sampling) that the kernel's spans enter and leave through it.
	// Always non-nil, constructed with events and phases disabled;
	// enable the tracer (and snapshot Mon) to record a window, and the
	// ledger to attribute cycles.
	Trc *mmtrace.Tracer

	// Inj is the attached fault injector (nil = no injection; the
	// injection points reduce to one never-taken branch).
	Inj *faultinject.Injector

	// cacheLocked makes data misses bypass allocation (§10.1's
	// locked-cache idle task). Toggled by the kernel around idle work.
	cacheLocked bool
}

// Options tunes non-default machine construction.
type Options struct {
	// HTABGroups overrides the hash-table size (0 = the architected
	// default for 32 MB, 2048 groups / 16384 PTEs).
	HTABGroups int
	// TraceCapacity overrides the tracer's ring size (0 =
	// mmtrace.DefaultCapacity).
	TraceCapacity int
	// Injector attaches a fault injector to the machine and its MMU
	// (nil = no injection).
	Injector *faultinject.Injector
}

// New builds a machine for the given CPU model with the default 32 MB
// of RAM and a 2 MB kernel image.
func New(model clock.CPUModel) *Machine {
	return NewWithOptions(model, Options{})
}

// NewWithOptions builds a machine with overrides.
func NewWithOptions(model clock.CPUModel, opts Options) *Machine {
	groups := opts.HTABGroups
	if groups == 0 {
		groups = arch.DefaultHTABGroups
	}
	m := &Machine{
		Model:  model,
		Led:    clock.NewLedger(model.MHz),
		Mon:    &hwmon.Counters{},
		ICache: cache.New("I", model.L1Size, cache.Ways, model.LineSize),
		DCache: cache.New("D", model.L1Size, cache.Ways, model.LineSize),
		Mem:    phys.NewWithHTAB(phys.DefaultRAM, 2<<20, groups),
	}
	m.Trc = mmtrace.NewTracer(m.Led, m.Mon, opts.TraceCapacity)
	htab := ppc.NewHTAB(groups, m.Mem.Layout().HTABBase)
	m.MMU = ppc.NewMMU(model, htab, m.Led, m, m.Trc)
	if opts.Injector != nil {
		m.Inj = opts.Injector
		m.MMU.SetInjector(opts.Injector)
	}
	return m
}

// MemAccess implements ppc.Bus: one physical data access on behalf of a
// traffic class, charged through the D-cache (table walks are data
// traffic). Inhibited accesses bypass the cache and pay the full memory
// latency; misses that evict a dirty line pay the castout writeback on
// top of the fill.
func (m *Machine) MemAccess(pa arch.PhysAddr, class cache.Class, inhibited, write bool) {
	if m.Inj != nil {
		m.injectMem(pa)
	}
	if inhibited {
		m.DCache.AccessInhibited(class)
		m.Led.Charge(clock.Cycles(m.Model.MemLatency))
		m.Trc.CacheFill(pa, clock.Cycles(m.Model.MemLatency), uint32(class))
		return
	}
	if m.cacheLocked {
		if m.DCache.AccessNoAlloc(pa, class, write) {
			m.Led.Charge(1)
		} else {
			m.Led.Charge(clock.Cycles(m.Model.MemLatency))
			m.Trc.CacheFill(pa, clock.Cycles(m.Model.MemLatency), uint32(class))
		}
		return
	}
	hit, castout := m.DCache.Access(pa, class, write)
	if hit {
		m.Led.Charge(1)
		return
	}
	fill := clock.Cycles(1 + m.fillCost(castout))
	m.Led.Charge(fill)
	m.Trc.CacheFill(pa, fill, uint32(class))
}

// fillCost returns the cycles to service an L1 miss from memory: a
// line read, plus a writeback when the victim was dirty.
func (m *Machine) fillCost(castout bool) int {
	c := m.Model.MemLatency
	if castout {
		c += m.Model.MemLatency
	}
	return c
}

// injectMem is the SiteMemAccess injection point: cache-line parity
// faults and spurious machine-check delivery.
func (m *Machine) injectMem(pa arch.PhysAddr) {
	n := m.Inj.Fire(faultinject.SiteMemAccess)
	for i := 0; i < n; i++ {
		kind, ok := m.Inj.PickKind(faultinject.SiteMemAccess)
		if !ok {
			return
		}
		switch kind {
		case faultinject.CacheFlip:
			if m.Inj.QueueFull() {
				m.Inj.NoteSkipped(kind)
				continue
			}
			victim, ok := m.DCache.CorruptCleanLine(m.Inj.Rand(), pa)
			if !ok {
				m.Inj.NoteSkipped(kind)
				continue
			}
			m.Inj.Push(faultinject.Pending{Cause: faultinject.CauseCacheParity, Addr: victim})
			m.Inj.NoteApplied(kind)
		case faultinject.SpuriousMC:
			if m.Inj.QueueFull() {
				m.Inj.NoteSkipped(kind)
				continue
			}
			m.Inj.Push(faultinject.Pending{Cause: faultinject.CauseSpurious, Addr: pa})
			m.Inj.NoteApplied(kind)
		default:
			m.Inj.NoteSkipped(kind)
		}
	}
}

// SetCacheLock engages or releases the data-cache lock (§10.1). While
// locked, misses read straight from memory without allocating.
func (m *Machine) SetCacheLock(locked bool) { m.cacheLocked = locked }

// CacheLocked reports whether the data-cache lock is engaged.
func (m *Machine) CacheLocked() bool { return m.cacheLocked }

// Prefetch issues a dcbt-style data prefetch: the line is filled with
// normal eviction attribution but only the issue cost is charged — the
// fill latency is assumed overlapped with useful work (§10.2).
func (m *Machine) Prefetch(pa arch.PhysAddr, class cache.Class) {
	m.DCache.Prefetch(pa, class)
	m.Led.Charge(prefetchIssueCycles)
}

// prefetchIssueCycles is the cost of issuing one dcbt.
const prefetchIssueCycles = 2

// ZeroLine executes a dcbz: the line is established zeroed and dirty
// with no memory read — one cycle, plus a castout if a dirty victim had
// to leave.
func (m *Machine) ZeroLine(pa arch.PhysAddr, class cache.Class) {
	if m.DCache.ZeroLine(pa, class) {
		m.Led.Charge(clock.Cycles(1 + m.Model.MemLatency))
		return
	}
	m.Led.Charge(1)
}

// Fetch performs one physical instruction-side access (one cache line's
// worth of instructions) through the I-cache.
func (m *Machine) Fetch(pa arch.PhysAddr, class cache.Class, inhibited bool) {
	if inhibited {
		m.ICache.AccessInhibited(class)
		m.Led.Charge(clock.Cycles(m.Model.MemLatency))
		m.Trc.Phases().Attribute(telemetry.PhaseFetch, clock.Cycles(m.Model.MemLatency))
		m.Trc.CacheFill(pa, clock.Cycles(m.Model.MemLatency), uint32(class))
		return
	}
	if hit, _ := m.ICache.Access(pa, class, false); hit {
		// Fetch hits are covered by the per-instruction execution
		// charge; no extra cycles.
		return
	}
	fill := clock.Cycles(m.Model.MemLatency)
	m.Led.Charge(fill)
	m.Trc.Phases().Attribute(telemetry.PhaseFetch, fill)
	m.Trc.CacheFill(pa, fill, uint32(class))
}

// LineSize returns the cache line size for iteration helpers.
func (m *Machine) LineSize() int { return m.Model.LineSize }

// Reset clears caches, TLB and counters but keeps memory contents and
// the hash table — a warm reboot for back-to-back experiments.
func (m *Machine) Reset() {
	m.ICache.InvalidateAll()
	m.DCache.InvalidateAll()
	m.ICache.ResetStats()
	m.DCache.ResetStats()
	m.MMU.InvalidateTLBs()
	*m.Mon = hwmon.Counters{}
	m.Trc.Reset()
	m.Trc.Phases().Restart()
}
