package machine

// The run path: batched physical accesses. A Run is a same-translation
// streak of equally-strided references; the kernel resolves the
// translation once and the machine simulates the cache over the whole
// streak in a tight loop. Everything observable — hwmon counters,
// cache statistics, cycle charges, and mmtrace emits — is
// reference-for-reference identical to the equivalent scalar loop:
//
//   - cache state is advanced by cache.AccessRun with exact scalar
//     LRU/dirty/attribution semantics;
//   - hit charges between misses coalesce into one ledger charge; the
//     ledger's cycle count is exact (not sampled), so the cumulative
//     cycles at every emit point — the only places time is read —
//     are unchanged;
//   - the L2 is consulted per miss, in reference order, exactly as the
//     scalar path would;
//   - trace events are emitted per miss at the same cumulative-cycle
//     instants with the same payloads;
//   - an attached fault injector forces the scalar loop (injection
//     polls are per-reference by contract).

import (
	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
	"mmutricks/internal/clock"
	"mmutricks/internal/telemetry"
)

// runMissCap bounds the per-chunk miss scratch. Runs are chunked so
// the recorded misses always fit: one miss per distinct line for the
// allocating cache, one per reference for the locked cache.
const runMissCap = 256

// runChunk returns how many references of a run can be simulated in
// one cache.AccessRun call without overflowing the miss scratch.
//
//mmutricks:noalloc
func (m *Machine) runChunk(n, stride int, locked bool) int {
	max := runMissCap
	if !locked {
		// At most one miss per distinct line: (chunk-1)*stride spans
		// at most (runMissCap-1) full lines.
		max = (runMissCap-1)*m.Model.LineSize/stride + 1
	}
	if n < max {
		return n
	}
	return max
}

// MemAccessRun is MemAccessRunMask for a pure load or store run.
//
//mmutricks:noalloc
func (m *Machine) MemAccessRun(pa arch.PhysAddr, n, stride int, class cache.Class, inhibited, write bool) {
	m.MemAccessRunMask(pa, n, stride, class, inhibited, cache.StoresOf(write))
}

// MemAccessRunMask performs n equally-strided data accesses (pa,
// pa+stride, ...) on behalf of one traffic class, reference i storing
// iff st.At(i) — the batched equivalent of n MemAccess calls.
//
//mmutricks:noalloc
func (m *Machine) MemAccessRunMask(pa arch.PhysAddr, n, stride int, class cache.Class, inhibited bool, st cache.Stores) {
	if n <= 0 {
		return
	}
	if m.Inj != nil {
		// Injection polls are per-reference; keep the scalar loop.
		for i := 0; i < n; i++ {
			m.MemAccess(pa+arch.PhysAddr(i*stride), class, inhibited, st.At(i))
		}
		return
	}
	if inhibited {
		// No cache state involved: every reference pays the memory
		// latency and emits one fill event.
		m.DCache.AccessInhibitedN(class, n)
		lat := clock.Cycles(m.Model.MemLatency)
		if !m.Trc.Enabled() {
			m.Led.Charge(lat * clock.Cycles(n))
			return
		}
		for i := 0; i < n; i++ {
			m.Led.Charge(lat)
			m.Trc.CacheFill(pa+arch.PhysAddr(i*stride), lat, uint32(class))
		}
		return
	}
	if !m.cacheLocked && !m.Trc.Enabled() && m.L2 == nil {
		// Tracer off, no L2: fill costs are closed-form, so the run
		// needs neither per-miss records nor chunking.
		nmiss, ncast := m.DCache.AccessRunCountMask(pa, n, stride, class, st)
		m.Led.Charge(clock.Cycles(n) + clock.Cycles((nmiss+ncast)*m.Model.MemLatency))
		return
	}
	for n > 0 {
		chunk := m.runChunk(n, stride, m.cacheLocked)
		if m.cacheLocked {
			m.lockedRun(pa, chunk, stride, class, st)
		} else {
			m.cachedRun(pa, chunk, stride, class, st)
		}
		pa += arch.PhysAddr(chunk * stride)
		n -= chunk
		st = st.From(chunk)
	}
}

// cachedRun simulates one chunk through the allocating D-cache.
//
//mmutricks:noalloc
func (m *Machine) cachedRun(pa arch.PhysAddr, n, stride int, class cache.Class, st cache.Stores) {
	nmiss := m.DCache.AccessRun(pa, n, stride, class, st, m.missBuf[:])
	if !m.Trc.Enabled() {
		// No emit points inside the chunk, so the per-reference charges
		// coalesce; the L2 is still consulted per miss in order.
		if m.L2 == nil {
			// Without an L2 the fill cost is closed-form: MemLatency
			// per miss, doubled when the victim writes back.
			ncast := 0
			for i := 0; i < nmiss; i++ {
				if m.missBuf[i].Castout {
					ncast++
				}
			}
			m.Led.Charge(clock.Cycles(n) + clock.Cycles((nmiss+ncast)*m.Model.MemLatency))
			return
		}
		total := clock.Cycles(n)
		for i := 0; i < nmiss; i++ {
			mr := m.missBuf[i]
			total += clock.Cycles(m.fillCost(pa+arch.PhysAddr(int(mr.Index)*stride), class, mr.Castout))
		}
		m.Led.Charge(total)
		return
	}
	done := 0
	for i := 0; i < nmiss; i++ {
		mr := m.missBuf[i]
		idx := int(mr.Index)
		if hits := idx - done; hits > 0 {
			m.Led.Charge(clock.Cycles(hits))
		}
		a := pa + arch.PhysAddr(idx*stride)
		fill := clock.Cycles(1 + m.fillCost(a, class, mr.Castout))
		m.Led.Charge(fill)
		m.Trc.CacheFill(a, fill, uint32(class))
		done = idx + 1
	}
	if hits := n - done; hits > 0 {
		m.Led.Charge(clock.Cycles(hits))
	}
}

// lockedRun simulates one chunk under the cache lock: hits behave
// normally, misses read memory without allocating (and without
// touching the L2, matching the scalar locked path).
//
//mmutricks:noalloc
func (m *Machine) lockedRun(pa arch.PhysAddr, n, stride int, class cache.Class, st cache.Stores) {
	nmiss := m.DCache.AccessNoAllocRun(pa, n, stride, class, st, m.missBuf[:])
	lat := clock.Cycles(m.Model.MemLatency)
	if !m.Trc.Enabled() {
		m.Led.Charge(clock.Cycles(n-nmiss) + lat*clock.Cycles(nmiss))
		return
	}
	done := 0
	for i := 0; i < nmiss; i++ {
		idx := int(m.missBuf[i].Index)
		if hits := idx - done; hits > 0 {
			m.Led.Charge(clock.Cycles(hits))
		}
		m.Led.Charge(lat)
		m.Trc.CacheFill(pa+arch.PhysAddr(idx*stride), lat, uint32(class))
		done = idx + 1
	}
	if hits := n - done; hits > 0 {
		m.Led.Charge(clock.Cycles(hits))
	}
}

// FetchRun performs n equally-strided instruction-side accesses — the
// batched equivalent of n Fetch calls (hits cost nothing; fills charge
// the fill cost without the 1-cycle access, and castouts are absorbed
// as on the scalar fetch path).
//
//mmutricks:noalloc
func (m *Machine) FetchRun(pa arch.PhysAddr, n, stride int, class cache.Class, inhibited bool) {
	if n <= 0 {
		return
	}
	if inhibited {
		m.ICache.AccessInhibitedN(class, n)
		lat := clock.Cycles(m.Model.MemLatency)
		if !m.Trc.Enabled() {
			m.Led.Charge(lat * clock.Cycles(n))
			m.Ph.Attribute(telemetry.PhaseFetch, lat*clock.Cycles(n))
			return
		}
		for i := 0; i < n; i++ {
			m.Led.Charge(lat)
			m.Ph.Attribute(telemetry.PhaseFetch, lat)
			m.Trc.CacheFill(pa+arch.PhysAddr(i*stride), lat, uint32(class))
		}
		return
	}
	if !m.Trc.Enabled() && m.L2 == nil {
		// Fetch misses never cast out a charge (absorbed as on the
		// scalar fetch path), so only the miss count matters.
		nmiss, _ := m.ICache.AccessRunCountMask(pa, n, stride, class, cache.NoStores)
		if nmiss > 0 {
			fills := clock.Cycles(nmiss * m.Model.MemLatency)
			m.Led.Charge(fills)
			m.Ph.Attribute(telemetry.PhaseFetch, fills)
		}
		return
	}
	for n > 0 {
		chunk := m.runChunk(n, stride, false)
		nmiss := m.ICache.AccessRun(pa, chunk, stride, class, cache.NoStores, m.missBuf[:])
		if !m.Trc.Enabled() {
			var total clock.Cycles
			if m.L2 == nil {
				// Fetch misses never cast out, so every fill costs
				// exactly MemLatency without an L2.
				total = clock.Cycles(nmiss * m.Model.MemLatency)
			} else {
				for i := 0; i < nmiss; i++ {
					total += clock.Cycles(m.fillCost(pa+arch.PhysAddr(int(m.missBuf[i].Index)*stride), class, false))
				}
			}
			if total > 0 {
				m.Led.Charge(total)
				m.Ph.Attribute(telemetry.PhaseFetch, total)
			}
		} else {
			for i := 0; i < nmiss; i++ {
				a := pa + arch.PhysAddr(int(m.missBuf[i].Index)*stride)
				fill := clock.Cycles(m.fillCost(a, class, false))
				m.Led.Charge(fill)
				m.Ph.Attribute(telemetry.PhaseFetch, fill)
				m.Trc.CacheFill(a, fill, uint32(class))
			}
		}
		pa += arch.PhysAddr(chunk * stride)
		n -= chunk
	}
}

// MemPairRun performs n interleaved pairs of data accesses — the copy
// loop's read-a / write-b pattern — with one cache step per reference
// and hit charges coalesced between misses. The a and b streams may
// conflict in the cache, so the interleaving is simulated faithfully.
//
//mmutricks:noalloc
func (m *Machine) MemPairRun(aPA, bPA arch.PhysAddr, n, stride int, aClass, bClass cache.Class, aWrite, bWrite bool) {
	if m.Inj != nil || m.cacheLocked {
		for i := 0; i < n; i++ {
			m.MemAccess(aPA+arch.PhysAddr(i*stride), aClass, false, aWrite)
			m.MemAccess(bPA+arch.PhysAddr(i*stride), bClass, false, bWrite)
		}
		return
	}
	if !m.Trc.Enabled() && m.L2 == nil {
		// No emit points and closed-form fill costs: step the cache per
		// reference (the streams may conflict) but coalesce the whole
		// pair run into one charge.
		nmc := 0
		for i := 0; i < n; i++ {
			if hit, co := m.DCache.Access(aPA+arch.PhysAddr(i*stride), aClass, aWrite); !hit {
				nmc++
				if co {
					nmc++
				}
			}
			if hit, co := m.DCache.Access(bPA+arch.PhysAddr(i*stride), bClass, bWrite); !hit {
				nmc++
				if co {
					nmc++
				}
			}
		}
		m.Led.Charge(clock.Cycles(2*n) + clock.Cycles(nmc*m.Model.MemLatency))
		return
	}
	var pend clock.Cycles
	for i := 0; i < n; i++ {
		pend = m.memStep(aPA+arch.PhysAddr(i*stride), aClass, aWrite, pend)
		pend = m.memStep(bPA+arch.PhysAddr(i*stride), bClass, bWrite, pend)
	}
	if pend > 0 {
		m.Led.Charge(pend)
	}
}

// memStep is one cached data reference with the hit charge deferred
// into pend; a miss flushes pend, then charges and emits at the exact
// scalar point.
//
//mmutricks:noalloc
func (m *Machine) memStep(pa arch.PhysAddr, class cache.Class, write bool, pend clock.Cycles) clock.Cycles {
	hit, castout := m.DCache.Access(pa, class, write)
	if hit {
		return pend + 1
	}
	if pend > 0 {
		m.Led.Charge(pend)
	}
	fill := clock.Cycles(1 + m.fillCost(pa, class, castout))
	m.Led.Charge(fill)
	m.Trc.CacheFill(pa, fill, uint32(class))
	return 0
}

// ZeroLineRun executes n consecutive dcbz line-establishes. The scalar
// path emits no trace events, so the per-line charges coalesce into
// one.
//
//mmutricks:noalloc
func (m *Machine) ZeroLineRun(pa arch.PhysAddr, nlines int, class cache.Class) {
	castouts := m.DCache.ZeroLineRun(pa, nlines, class)
	m.Led.Charge(clock.Cycles(nlines + castouts*m.Model.MemLatency))
}
