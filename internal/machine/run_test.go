package machine

import (
	"fmt"
	"reflect"
	"testing"

	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
	"mmutricks/internal/clock"
	"mmutricks/internal/faultinject"
	"mmutricks/internal/mmtrace"
	"mmutricks/internal/telemetry"
)

// runObs is everything a run can change on the machine.
type runObs struct {
	Cycles clock.Cycles
	DStats cache.Stats
	Dirty  int
	Events []mmtrace.Event
}

func observe(m *Machine) runObs {
	return runObs{
		Cycles: m.Led.Now(),
		DStats: *m.DCache.Stats(),
		Dirty:  m.DCache.DirtyLines(),
		Events: m.Trc.Events(),
	}
}

// MemAccessRunMask must equal the scalar MemAccess loop on every route,
// for runs of every stride shape and store mask.
func TestMemAccessRunMaskMatchesScalar(t *testing.T) {
	routes := []struct {
		name      string
		model     clock.CPUModel
		inhibited bool
		setup     func(m *Machine)
	}{
		{name: "count", model: clock.PPC604At185()},
		{name: "tracer", model: clock.PPC604At185(), setup: func(m *Machine) { m.Trc.Enable() }},
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
		{name: "inhibited", model: clock.PPC604At185(), inhibited: true},
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

// FetchRun must equal the scalar Fetch loop on every route: the same
// cycles, the same I-cache statistics and lines, and the same fetch
// phase cycles.
func TestFetchRunMatchesScalar(t *testing.T) {
	routes := []struct {
		name      string
		model     clock.CPUModel
		inhibited bool
		traced    bool
	}{
		{name: "count 603", model: clock.PPC603At180()},
		{name: "count 604", model: clock.PPC604At185()},
		{name: "inhibited", model: clock.PPC604At185(), inhibited: true},
		{name: "tracer", model: clock.PPC603At180(), traced: true},
	}
	runs := []struct {
		pa        arch.PhysAddr
		n, stride int
	}{
		{0x1000, 3, 32},
		{0x1000, 8, 32},
		{0x100004, 700, 32},
		{0x120000, 300, 64},
		{0x1000, 40, 32},
		{0x140000, 9, 8},
		{0x180000, 1000, 32},
	}
	for _, r := range routes {
		t.Run(r.name, func(t *testing.T) {
			mr, ms := New(r.model), New(r.model)
			for _, m := range []*Machine{mr, ms} {
				m.Trc.Phases().Enable(telemetry.Options{})
				if r.traced {
					m.Trc.Enable()
				}
				// Warm both with the same contents, so runs hit as well.
				for i := 0; i < 1024; i++ {
					m.ICache.Access(arch.PhysAddr(0x200000+i*32), cache.ClassKernelText, false)
				}
				for i := 0; i < 64; i++ {
					m.ICache.Access(arch.PhysAddr(0x100000+i*64), cache.ClassUser, false)
				}
			}
			for i, run := range runs {
				mr.FetchRun(run.pa, run.n, run.stride, cache.ClassKernelText, r.inhibited)
				for j := 0; j < run.n; j++ {
					ms.Fetch(run.pa+arch.PhysAddr(j*run.stride), cache.ClassKernelText, r.inhibited)
				}
				if b, s := mr.Led.Now(), ms.Led.Now(); b != s {
					t.Fatalf("run %d (%d refs, stride %d): %d cycles, scalar loop %d", i, run.n, run.stride, b, s)
				}
				if !reflect.DeepEqual(mr.ICache, ms.ICache) {
					t.Fatalf("run %d (%d refs, stride %d): I-cache diverges\nrun    %+v\nscalar %+v", i, run.n, run.stride, *mr.ICache.Stats(), *ms.ICache.Stats())
				}
				if b, s := mr.Trc.Phases().Cycles(telemetry.PhaseFetch), ms.Trc.Phases().Cycles(telemetry.PhaseFetch); b != s {
					t.Fatalf("run %d (%d refs, stride %d): %d fetch-phase cycles, scalar loop %d", i, run.n, run.stride, b, s)
				}
				if !reflect.DeepEqual(mr.Trc.Events(), ms.Trc.Events()) {
					t.Fatalf("run %d (%d refs, stride %d): trace events diverge", i, run.n, run.stride)
				}
			}
			if mr.Trc.Phases().Cycles(telemetry.PhaseFetch) == 0 {
				t.Fatal("no run missed: the fill charges went untested")
			}
		})
	}
}

// TestFetchRunEntriesDependOnRoute pins a known defect: a cold 64-line
// FetchRun charges the same fill cycles to PhaseFetch on both routes,
// but the untraced route attributes them in one Attribute call and so
// counts one entry, while the traced route takes the scalar Fetch and
// counts one per miss. phase_enters and the telemetry-phases "enters"
// column therefore count different things for fetch. Fixing it moves
// those counts, so the fix belongs to ROADMAP item 1's re-pin and must
// flip this test.
func TestFetchRunEntriesDependOnRoute(t *testing.T) {
	enters := map[bool]uint64{}
	for _, traced := range []bool{false, true} {
		m := New(clock.PPC604At185())
		m.Trc.Phases().Enable(telemetry.Options{})
		if traced {
			m.Trc.Enable()
		}
		m.FetchRun(0x1000, 64, m.Model.LineSize, cache.ClassKernelText, false)
		if got := m.Trc.Phases().Cycles(telemetry.PhaseFetch); got != 2176 {
			t.Fatalf("traced=%v: %d fetch-phase cycles, want 2176 (64 fills)", traced, got)
		}
		enters[traced] = m.Trc.Phases().Enters(telemetry.PhaseFetch)
	}
	if enters[false] != 1 || enters[true] != 64 {
		t.Fatalf("fetch entries: untraced %d, traced %d; the known defect reads 1 and 64", enters[false], enters[true])
	}
}

// pairTwins returns two machines of model with the same warm D-cache:
// lines of another region, every other one dirty, fill every set, so
// the pair run evicts clean and dirty victims, and every third line of
// the two streams is resident, dirty or clean, so it also hits.
func pairTwins(model clock.CPUModel, aPA, bPA arch.PhysAddr, n int) (run, ref *Machine) {
	run, ref = New(model), New(model)
	line := model.LineSize
	for _, m := range []*Machine{run, ref} {
		for i := 0; i < 2*m.DCache.Sets()*cache.Ways; i++ {
			m.DCache.Access(arch.PhysAddr(0x400000+i*line), cache.Class(i%5), i%2 == 0)
		}
		for i := 0; i < n; i += 3 {
			m.DCache.Access(aPA+arch.PhysAddr(i*line), cache.ClassKernelData, i%2 == 0)
			m.DCache.Access(bPA+arch.PhysAddr(i*line), cache.ClassUser, i%2 == 1)
		}
	}
	return run, ref
}

// checkPairRun runs n pairs through MemPairRun on one twin and through
// the interleaved MemAccess loop it stands for on the other, and
// requires the same cycles and the same D-cache: every statistic and
// every line's tag, class, dirty bit and recency.
func checkPairRun(t *testing.T, model clock.CPUModel, aPA, bPA arch.PhysAddr, n int, aWrite, bWrite bool) {
	t.Helper()
	mr, ms := pairTwins(model, aPA, bPA, n)
	line := model.LineSize
	mr.MemPairRun(aPA, bPA, n, cache.ClassKernelData, cache.ClassUser, aWrite, bWrite)
	for i := 0; i < n; i++ {
		ms.MemAccess(aPA+arch.PhysAddr(i*line), cache.ClassKernelData, false, aWrite)
		ms.MemAccess(bPA+arch.PhysAddr(i*line), cache.ClassUser, false, bWrite)
	}
	if mr.Led.Now() != ms.Led.Now() {
		t.Fatalf("%d cycles, interleaved loop %d", mr.Led.Now(), ms.Led.Now())
	}
	if *mr.DCache.Stats() != *ms.DCache.Stats() {
		t.Fatalf("stats diverge:\npair run    %+v\ninterleaved %+v", *mr.DCache.Stats(), *ms.DCache.Stats())
	}
	if !reflect.DeepEqual(mr.DCache, ms.DCache) {
		t.Fatal("cache lines diverge from the interleaved loop")
	}
}

// MemPairRun's count-only route runs each chunk of pairs as line runs
// of the two streams in an order that keeps every shared set's order;
// it must equal the interleaved loop for every set distance d between
// the streams (b's line i shares a set with a's line i+d or
// i+d-sets), at any alignment, for every load/store pair, on the 603's
// and the 604's D-cache.
func TestMemPairRunMatchesInterleaved(t *testing.T) {
	for _, model := range []clock.CPUModel{clock.PPC603At180(), clock.PPC604At185()} {
		line := model.LineSize
		sets := model.L1Size / cache.Ways / line
		span := arch.PhysAddr(sets * line) // one way: a set distance of 0
		cases := []struct {
			name       string
			aOff, bOff arch.PhysAddr
			n          int
		}{
			{"d=0", 0, 3 * span, 40},
			{"d=0 same lines", 0, 0, 40},
			{"d=0 whole cache", 0, 5 * span, sets},
			{"0<d<n", 0, 2*span + 5*arch.PhysAddr(line), 40},
			{"d>=n", 0, span + 60*arch.PhysAddr(line), 40},
			{"d=n", 0, span + 40*arch.PhysAddr(line), 40},
			{"n=sets wrap", 0, 4*span + 7*arch.PhysAddr(line), sets},
			{"n=sets d=sets-1", 0, span - arch.PhysAddr(line), sets},
			{"b below a", 6 * span, 2*span + 9*arch.PhysAddr(line), sets - 3},
			{"several chunks", 0, 7*span + 3*arch.PhysAddr(line), 2*sets + 5},
			{"unaligned", 4, 3*span + 9*arch.PhysAddr(line) + 12, sets},
			{"unaligned d=0", 20, 2*span + 8, 50},
			{"one pair", 0, 5 * arch.PhysAddr(line), 1},
		}
		for _, tc := range cases {
			for _, w := range []struct{ a, b bool }{{false, false}, {false, true}, {true, false}, {true, true}} {
				t.Run(fmt.Sprintf("%s/%s/a-store=%v/b-store=%v", model.Name, tc.name, w.a, w.b), func(t *testing.T) {
					checkPairRun(t, model, 0x100000+tc.aOff, 0x100000+tc.bOff, tc.n, w.a, w.b)
				})
			}
		}
	}
}

// FuzzPairRunParity is TestMemPairRunMatchesInterleaved over arbitrary
// stream bases, lengths and store pairs.
func FuzzPairRunParity(f *testing.F) {
	f.Add(false, uint32(0x100000), uint32(0x10a0a0), uint16(128), uint8(2))
	f.Add(true, uint32(0x100004), uint32(0x1200ec), uint16(256), uint8(3))
	f.Add(false, uint32(0x120000), uint32(0x100000), uint16(300), uint8(1))
	f.Fuzz(func(t *testing.T, is604 bool, aPA, bPA uint32, n uint16, writes uint8) {
		model := clock.PPC603At180()
		if is604 {
			model = clock.PPC604At185()
		}
		checkPairRun(t, model, arch.PhysAddr(aPA&0xffffff), arch.PhysAddr(bPA&0xffffff), int(n%1024), writes&1 != 0, writes&2 != 0)
	})
}

// BenchmarkMemPairRun is the page copy of fork's copy-on-write break
// on the 604: 128-line pairs from a source page to a destination page
// whose lines sit 5 sets further on, so each copy is four line runs,
// the two streams sweeping 64 pages each, 16 times the cache, so every
// reference misses.
func BenchmarkMemPairRun(b *testing.B) {
	m := New(clock.PPC604At185())
	const pages, lines = 64, arch.PageSize / 32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := arch.PhysAddr(i%pages) * arch.PageSize
		m.MemPairRun(0x100000+p, 0x200000+5*32+p, lines, cache.ClassKernelData, cache.ClassKernelData, false, true)
	}
	b.StopTimer()
	if got, want := m.DCache.Stats().TotalMisses(), uint64(2*lines*b.N); got != want {
		b.Fatalf("%d misses, want every one of the %d references to miss", got, want)
	}
}
