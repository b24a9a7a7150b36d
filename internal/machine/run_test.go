package machine

import (
	"reflect"
	"testing"

	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
	"mmutricks/internal/clock"
	"mmutricks/internal/faultinject"
	"mmutricks/internal/mmtrace"
)

// runObs is everything a run can change on the machine.
type runObs struct {
	Cycles        clock.Cycles
	DStats, L2    cache.Stats
	Dirty, L2Dirt int
	Events        []mmtrace.Event
}

func observe(m *Machine) runObs {
	o := runObs{
		Cycles: m.Led.Now(),
		DStats: *m.DCache.Stats(),
		Dirty:  m.DCache.DirtyLines(),
		Events: m.Trc.Events(),
	}
	if m.L2 != nil {
		o.L2 = *m.L2.Stats()
		o.L2Dirt = m.L2.DirtyLines()
	}
	return o
}

// MemAccessRunMask must equal the scalar MemAccess loop on every route,
// including runs long enough to split into several miss-scratch chunks
// (the mask's phase must carry across chunk boundaries).
func TestMemAccessRunMaskMatchesScalar(t *testing.T) {
	withL2 := clock.PPC604At185()
	withL2.L2Size = 512 * 1024
	withL2.L2Latency = 9
	routes := []struct {
		name      string
		model     clock.CPUModel
		inhibited bool
		setup     func(m *Machine)
	}{
		{name: "count", model: clock.PPC604At185()},
		{name: "tracer", model: clock.PPC604At185(), setup: func(m *Machine) { m.Trc.Enable() }},
		{name: "l2", model: withL2},
		{name: "cache lock", model: clock.PPC603At180(), setup: func(m *Machine) { m.SetCacheLock(true) }},
		{name: "cache lock traced", model: clock.PPC603At180(), setup: func(m *Machine) {
			m.SetCacheLock(true)
			m.Trc.Enable()
		}},
		{name: "injector", model: clock.PPC604At185(), setup: func(m *Machine) {
			s := faultinject.DefaultSchedule(3)
			s.RatePPM = 2000
			m.Inj = faultinject.New(s)
			m.Inj.Arm()
		}},
		{name: "inhibited", model: clock.PPC604At185(), inhibited: true, setup: func(m *Machine) { m.Trc.Enable() }},
	}
	runs := []struct {
		pa        arch.PhysAddr
		n, stride int
		st        cache.Stores
	}{
		{0x100000, 700, 32, 0x8},
		{0x100000, 700, 32, 0x3},
		{0x140002, 5000, 1, 0x4},
		{0x150004, 3001, 4, 0x8},
		{0x160000, 600, 8, 0x1},
		// Two references per line: chunks of 511 split the mask mid-period.
		{0x170000, 1500, 16, 0x8},
		{0x100000, 1500, 16, 0x2},
		{0x100000, 900, 64, 0x6},
		{0x180000, 1000, 32, cache.AllStores},
	}
	for _, r := range routes {
		t.Run(r.name, func(t *testing.T) {
			mr, ms := New(r.model), New(r.model)
			if r.setup != nil {
				r.setup(mr)
				r.setup(ms)
			}
			// Warm both with the same contents: dirty lines so castouts
			// run, then clean lines of the first runs so stores hit (the
			// locked route allocates nothing, so only hits can dirty).
			for _, m := range []*Machine{mr, ms} {
				for i := 0; i < 2048; i++ {
					m.DCache.Access(arch.PhysAddr(0x200000+i*32), cache.ClassKernelData, i%2 == 0)
				}
				for i := 0; i < 256; i++ {
					m.DCache.Access(arch.PhysAddr(0x100000+i*32), cache.ClassUser, false)
				}
			}
			for i, run := range runs {
				mr.MemAccessRunMask(run.pa, run.n, run.stride, cache.ClassUser, r.inhibited, run.st)
				for j := 0; j < run.n; j++ {
					ms.MemAccess(run.pa+arch.PhysAddr(j*run.stride), cache.ClassUser, r.inhibited, run.st.At(j))
				}
				if b, s := observe(mr), observe(ms); !reflect.DeepEqual(b, s) {
					t.Fatalf("run %d (%d refs, stride %d, mask %#x): run and scalar loop diverge\nrun    %d cycles, %d dirty, %+v\nscalar %d cycles, %d dirty, %+v",
						i, run.n, run.stride, run.st, b.Cycles, b.Dirty, b.DStats, s.Cycles, s.Dirty, s.DStats)
				}
			}
		})
	}
}
