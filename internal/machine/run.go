package machine

// The run path: batched physical accesses. A Run is a same-translation
// streak of equally-strided references; the kernel resolves the
// translation once and the machine simulates the cache over the whole
// streak in a tight loop. Everything observable — hwmon counters,
// cache statistics and cycle charges — is identical to the equivalent
// scalar loop:
//
//   - cache state is advanced by the cache's count-only runs
//     (AccessRunCountMask, AccessNoAllocRun) with exact scalar
//     LRU/dirty/attribution semantics;
//   - a run's charges coalesce into one ledger charge, fills in closed
//     form: the ledger's cycle count is exact (not sampled), and an
//     untraced run has no emit point inside it, so nothing reads the
//     time between its references;
//   - an attached fault injector or an enabled tracer forces the
//     scalar loop: injection polls and trace emits are per-reference
//     by contract, so a traced run is the scalar twin of the untraced
//     one.

import (
	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
	"mmutricks/internal/clock"
	"mmutricks/internal/telemetry"
)

// MemAccessRun is MemAccessRunMask for a pure load or store run.
func (m *Machine) MemAccessRun(pa arch.PhysAddr, n, stride int, class cache.Class, inhibited, write bool) {
	m.MemAccessRunMask(pa, n, stride, class, inhibited, cache.StoresOf(write))
}

// MemAccessRunMask performs n equally-strided data accesses (pa,
// pa+stride, ...) on behalf of one traffic class, reference i storing
// iff st.At(i) — the batched equivalent of n MemAccess calls.
func (m *Machine) MemAccessRunMask(pa arch.PhysAddr, n, stride int, class cache.Class, inhibited bool, st cache.Stores) {
	if n <= 0 {
		return
	}
	if m.Inj != nil || m.Trc.Enabled() {
		// Injection polls and trace emits are per-reference; keep the
		// scalar loop.
		for i := 0; i < n; i++ {
			m.MemAccess(pa+arch.PhysAddr(i*stride), class, inhibited, st.At(i))
		}
		return
	}
	lat := clock.Cycles(m.Model.MemLatency)
	switch {
	case inhibited:
		// No cache state involved: every reference pays the memory
		// latency.
		m.DCache.AccessInhibitedN(class, n)
		m.Led.Charge(lat * clock.Cycles(n))
	case m.cacheLocked:
		// Hits behave normally; misses read memory without allocating.
		nmiss := m.DCache.AccessNoAllocRun(pa, n, stride, class, st)
		m.Led.Charge(clock.Cycles(n-nmiss) + lat*clock.Cycles(nmiss))
	default:
		nmiss, ncast := m.DCache.AccessRunCountMask(pa, n, stride, class, st)
		m.Led.Charge(clock.Cycles(n) + clock.Cycles(nmiss+ncast)*lat)
	}
}

// FetchRun performs n equally-strided instruction-side accesses — the
// batched equivalent of n Fetch calls (hits cost nothing; fills charge
// the fill cost without the 1-cycle access, and castouts are absorbed
// as on the scalar fetch path).
func (m *Machine) FetchRun(pa arch.PhysAddr, n, stride int, class cache.Class, inhibited bool) {
	if n <= 0 {
		return
	}
	if m.Trc.Enabled() {
		// Trace emits are per-reference; keep the scalar loop.
		for i := 0; i < n; i++ {
			m.Fetch(pa+arch.PhysAddr(i*stride), class, inhibited)
		}
		return
	}
	if inhibited {
		m.ICache.AccessInhibitedN(class, n)
		lat := clock.Cycles(m.Model.MemLatency)
		m.Led.Charge(lat * clock.Cycles(n))
		m.Trc.Phases().Attribute(telemetry.PhaseFetch, lat*clock.Cycles(n))
		return
	}
	// Fetch misses never cast out a charge (absorbed as on the scalar
	// fetch path), so only the miss count matters.
	nmiss, _ := m.ICache.AccessRunCountMask(pa, n, stride, class, cache.NoStores)
	if nmiss > 0 {
		fills := clock.Cycles(nmiss * m.Model.MemLatency)
		m.Led.Charge(fills)
		m.Trc.Phases().Attribute(telemetry.PhaseFetch, fills)
	}
}

// MemPairRun performs n interleaved pairs of line-strided data
// accesses — the copy loop's read-a / write-b pattern, reference i of
// each stream on the line after reference i-1's. The a and b streams
// may conflict in the cache, so the interleaving is simulated
// faithfully.
func (m *Machine) MemPairRun(aPA, bPA arch.PhysAddr, n int, aClass, bClass cache.Class, aWrite, bWrite bool) {
	line := m.Model.LineSize
	if m.Inj != nil || m.cacheLocked || m.Trc.Enabled() {
		for i := 0; i < n; i++ {
			m.MemAccess(aPA+arch.PhysAddr(i*line), aClass, false, aWrite)
			m.MemAccess(bPA+arch.PhysAddr(i*line), bClass, false, bWrite)
		}
		return
	}
	// No emit points and closed-form fill costs: the pair run is at
	// most four line runs per chunk of k <= sets pairs, and one charge.
	// Sets are independent and a chunk's streams each touch distinct
	// sets, so only a set both streams touch needs its order kept. With
	// d in [1, sets] b's set less a's, modulo sets, b's line j shares a
	// set with a's line j+d, which the loop reaches after it, or with
	// a's line j+d-sets, which it reaches first. a's first d lines, b's
	// first k-d, then the rest of a and the rest of b keep both orders
	// (DESIGN.md §10).
	sets := m.DCache.Sets()
	d := int(uint32(bPA)/uint32(line)-uint32(aPA)/uint32(line)) & (sets - 1)
	if d == 0 {
		d = sets
	}
	nmc := 0
	for done := 0; done < n; {
		k := min(n-done, sets)
		ha, hb := min(d, k), max(k-d, 0)
		a, b := aPA+arch.PhysAddr(done*line), bPA+arch.PhysAddr(done*line)
		nmc += m.pairLeg(a, 0, ha, aClass, aWrite) + m.pairLeg(b, 0, hb, bClass, bWrite) +
			m.pairLeg(a, ha, k, aClass, aWrite) + m.pairLeg(b, hb, k, bClass, bWrite)
		done += k
	}
	m.Led.Charge(clock.Cycles(2*n) + clock.Cycles(nmc*m.Model.MemLatency))
}

// pairLeg runs lines [from, to) of one stream of a pair run, from line
// pa, through the count-only cache path and returns the fills it
// charges: its misses plus its castouts.
func (m *Machine) pairLeg(pa arch.PhysAddr, from, to int, class cache.Class, write bool) int {
	if from >= to {
		return 0
	}
	line := m.Model.LineSize
	nmiss, ncast := m.DCache.AccessRunCount(pa+arch.PhysAddr(from*line), to-from, line, class, write)
	return nmiss + ncast
}

// ZeroLineRun executes n consecutive dcbz line-establishes. The scalar
// path emits no trace events, so the per-line charges coalesce into
// one.
func (m *Machine) ZeroLineRun(pa arch.PhysAddr, nlines int, class cache.Class) {
	castouts := m.DCache.ZeroLineRun(pa, nlines, class)
	m.Led.Charge(clock.Cycles(nlines + castouts*m.Model.MemLatency))
}
