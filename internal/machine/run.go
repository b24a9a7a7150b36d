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
	if !m.cacheLocked && !m.Trc.Enabled() {
		// Tracer off: fill costs are closed-form, so the run needs
		// neither per-miss records nor chunking.
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

// cachedRun simulates one traced chunk through the allocating D-cache,
// charging and emitting each fill at its scalar point.
func (m *Machine) cachedRun(pa arch.PhysAddr, n, stride int, class cache.Class, st cache.Stores) {
	nmiss := m.DCache.AccessRun(pa, n, stride, class, st, m.missBuf[:])
	done := 0
	for i := 0; i < nmiss; i++ {
		mr := m.missBuf[i]
		idx := int(mr.Index)
		if hits := idx - done; hits > 0 {
			m.Led.Charge(clock.Cycles(hits))
		}
		a := pa + arch.PhysAddr(idx*stride)
		fill := clock.Cycles(1 + m.fillCost(mr.Castout))
		m.Led.Charge(fill)
		m.Trc.CacheFill(a, fill, uint32(class))
		done = idx + 1
	}
	if hits := n - done; hits > 0 {
		m.Led.Charge(clock.Cycles(hits))
	}
}

// lockedRun simulates one chunk under the cache lock: hits behave
// normally, misses read memory without allocating, matching the scalar
// locked path.
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
func (m *Machine) FetchRun(pa arch.PhysAddr, n, stride int, class cache.Class, inhibited bool) {
	if n <= 0 {
		return
	}
	if inhibited {
		m.ICache.AccessInhibitedN(class, n)
		lat := clock.Cycles(m.Model.MemLatency)
		if !m.Trc.Enabled() {
			m.Led.Charge(lat * clock.Cycles(n))
			m.Trc.Phases().Attribute(telemetry.PhaseFetch, lat*clock.Cycles(n))
			return
		}
		for i := 0; i < n; i++ {
			m.Led.Charge(lat)
			m.Trc.Phases().Attribute(telemetry.PhaseFetch, lat)
			m.Trc.CacheFill(pa+arch.PhysAddr(i*stride), lat, uint32(class))
		}
		return
	}
	if !m.Trc.Enabled() {
		// Fetch misses never cast out a charge (absorbed as on the
		// scalar fetch path), so only the miss count matters.
		nmiss, _ := m.ICache.AccessRunCountMask(pa, n, stride, class, cache.NoStores)
		if nmiss > 0 {
			fills := clock.Cycles(nmiss * m.Model.MemLatency)
			m.Led.Charge(fills)
			m.Trc.Phases().Attribute(telemetry.PhaseFetch, fills)
		}
		return
	}
	for n > 0 {
		chunk := m.runChunk(n, stride, false)
		nmiss := m.ICache.AccessRun(pa, chunk, stride, class, cache.NoStores, m.missBuf[:])
		fill := clock.Cycles(m.Model.MemLatency)
		for i := 0; i < nmiss; i++ {
			m.Led.Charge(fill)
			m.Trc.Phases().Attribute(telemetry.PhaseFetch, fill)
			m.Trc.CacheFill(pa+arch.PhysAddr(int(m.missBuf[i].Index)*stride), fill, uint32(class))
		}
		pa += arch.PhysAddr(chunk * stride)
		n -= chunk
	}
}

// MemPairRun performs n interleaved pairs of line-strided data
// accesses — the copy loop's read-a / write-b pattern, reference i of
// each stream on the line after reference i-1's. The a and b streams
// may conflict in the cache, so the interleaving is simulated
// faithfully.
func (m *Machine) MemPairRun(aPA, bPA arch.PhysAddr, n int, aClass, bClass cache.Class, aWrite, bWrite bool) {
	line := m.Model.LineSize
	if m.Inj != nil || m.cacheLocked {
		for i := 0; i < n; i++ {
			m.MemAccess(aPA+arch.PhysAddr(i*line), aClass, false, aWrite)
			m.MemAccess(bPA+arch.PhysAddr(i*line), bClass, false, bWrite)
		}
		return
	}
	if !m.Trc.Enabled() {
		// No emit points and closed-form fill costs: the pair run is at
		// most four line runs per chunk of k <= sets pairs, and one
		// charge. Sets are independent and a chunk's streams each
		// touch distinct sets, so only a set both streams touch needs
		// its order kept. With d in [1, sets] b's set less a's, modulo
		// sets, b's line j shares a set with a's line j+d, which the
		// loop reaches after it, or with a's line j+d-sets, which it
		// reaches first. a's first d lines, b's first k-d, then the
		// rest of a and the rest of b keep both orders (DESIGN.md §10).
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
		return
	}
	var pend clock.Cycles
	for i := 0; i < n; i++ {
		pend = m.memStep(aPA+arch.PhysAddr(i*line), aClass, aWrite, pend)
		pend = m.memStep(bPA+arch.PhysAddr(i*line), bClass, bWrite, pend)
	}
	if pend > 0 {
		m.Led.Charge(pend)
	}
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

// memStep is one cached data reference with the hit charge deferred
// into pend; a miss flushes pend, then charges and emits at the exact
// scalar point.
func (m *Machine) memStep(pa arch.PhysAddr, class cache.Class, write bool, pend clock.Cycles) clock.Cycles {
	hit, castout := m.DCache.Access(pa, class, write)
	if hit {
		return pend + 1
	}
	if pend > 0 {
		m.Led.Charge(pend)
	}
	fill := clock.Cycles(1 + m.fillCost(castout))
	m.Led.Charge(fill)
	m.Trc.CacheFill(pa, fill, uint32(class))
	return 0
}

// ZeroLineRun executes n consecutive dcbz line-establishes. The scalar
// path emits no trace events, so the per-line charges coalesce into
// one.
func (m *Machine) ZeroLineRun(pa arch.PhysAddr, nlines int, class cache.Class) {
	castouts := m.DCache.ZeroLineRun(pa, nlines, class)
	m.Led.Charge(clock.Cycles(nlines + castouts*m.Model.MemLatency))
}
