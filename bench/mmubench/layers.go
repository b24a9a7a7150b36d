package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"mmutricks/bench/stats"
	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
	"mmutricks/internal/clock"
	"mmutricks/internal/hwmon"
	"mmutricks/internal/machine"
	"mmutricks/internal/pagetable"
	"mmutricks/internal/phys"
	"mmutricks/internal/ppc"
	"mmutricks/internal/trace"
)

// The layer probes call one layer's public functions directly, on
// address streams drawn from the seed, and time the calls from
// outside. They run after the traced pass, with profiling off. They are
// the same on every workload: they measure the layer, not the workload
// they are reported under.

// probeReps is how many batches each probe times; it reports the
// median batch.
const probeReps = 9

// nsPerOp times batch probeReps times and returns the median host
// nanoseconds per operation, ops operations to a batch.
func nsPerOp(ops int, batch func()) float64 {
	xs := make([]float64, probeReps)
	for i := range xs {
		t0 := time.Now()
		batch()
		xs[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
	}
	return stats.Summarize(xs).Median
}

// allocsPerOp counts heap allocations per operation over one batch.
func allocsPerOp(ops int, batch func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	batch()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(ops)
}

// Address-space layout of the translate probe: a BAT block, a
// TLB-resident set, a hash-table-resident set and an absent set, each
// in its own segment.
const (
	batLen     = 8 << 20
	tlbPages   = 64 // fits the 604's 128-set TLB without conflict
	htabPages  = 4096
	tlbBase    = arch.EffectiveAddr(0x1000_0000)
	htabBase   = arch.EffectiveAddr(0x2000_0000)
	absentBase = arch.EffectiveAddr(0x3000_0000)
)

// translateProbe times ppc.(*MMU).Translate on a 604 by outcome and
// checks from the hwmon counters that every call had that outcome.
func translateProbe(seed uint64, n int, put func(name string, v float64)) error {
	rng := rand.New(rand.NewPCG(seed, 1))
	m := machine.New(clock.PPC604At185())
	mmu := m.MMU
	for seg := 0; seg < arch.NumSegments; seg++ {
		mmu.SetSegment(seg, arch.VSID(0x5000+seg))
	}
	if err := mmu.DBAT.Set(0, ppc.BATEntry{Valid: true, Base: arch.KernelBase, Len: batLen}); err != nil {
		return err
	}
	for i := 0; i < htabPages; i++ {
		vpn := mmu.VPNFor(htabBase + arch.EffectiveAddr(i*arch.PageSize))
		mmu.HTAB.Insert(vpn, arch.PFN(i), false, m, nil)
	}
	batEAs := make([]arch.EffectiveAddr, n)
	tlbEAs := make([]arch.EffectiveAddr, n)
	for i := range batEAs {
		batEAs[i] = arch.KernelBase + arch.EffectiveAddr(rng.IntN(batLen))
		tlbEAs[i] = tlbBase + arch.EffectiveAddr(rng.IntN(tlbPages*arch.PageSize))
	}
	// Whole cycles of pointer chases over 16x the pages the TLB holds:
	// every call misses the TLB, then hits (or misses) the hash table.
	chase := func(base arch.EffectiveAddr) []arch.EffectiveAddr {
		g := trace.NewPointerChase(base, htabPages, rng.Uint32())
		eas := make([]arch.EffectiveAddr, (n+htabPages-1)/htabPages*htabPages)
		for i := range eas {
			eas[i] = g.Next()
		}
		return eas
	}
	outcomes := []struct {
		name  string
		eas   []arch.EffectiveAddr
		prep  func()
		count func(d *hwmon.Counters) uint64
	}{
		{"bat_hit", batEAs, nil, func(d *hwmon.Counters) uint64 { return d.BATHits }},
		{"tlb_hit", tlbEAs, func() {
			for i := 0; i < tlbPages; i++ {
				ea := tlbBase + arch.EffectiveAddr(i*arch.PageSize)
				mmu.TLBFor(false).Insert(mmu.VPNFor(ea), arch.PFN(i), false, false)
			}
		}, func(d *hwmon.Counters) uint64 { return d.TLBHits }},
		{"htab_hit", chase(htabBase), nil, func(d *hwmon.Counters) uint64 { return d.HTABHits }},
		{"hash_miss", chase(absentBase), nil, func(d *hwmon.Counters) uint64 { return d.HashMissFaults }},
	}
	allocs := 0.0
	for _, o := range outcomes {
		if o.prep != nil {
			o.prep()
		}
		batch := func() {
			for _, ea := range o.eas {
				mmu.Translate(ea, false)
			}
		}
		ops := len(o.eas)
		before := m.Mon.Snapshot()
		ns := nsPerOp(ops, batch)
		d := m.Mon.Delta(before)
		if got := o.count(&d); got != uint64(probeReps*ops) {
			return fmt.Errorf("translate probe: %s outcome on %d of %d calls", o.name, got, probeReps*ops)
		}
		put("ppc.translate."+o.name+".ns", ns)
		allocs += allocsPerOp(ops, batch) / float64(len(outcomes))
	}
	put("ppc.translate.allocs_per_op", allocs)
	return nil
}

// pagetableProbe times Map, Walk and Unmap of distinct random pages.
func pagetableProbe(seed uint64, n int, put func(name string, v float64)) error {
	rng := rand.New(rand.NewPCG(seed, 2))
	tbl, err := pagetable.New(phys.NewDefault())
	if err != nil {
		return err
	}
	const span = 1 << 16 // pages: 256 MB, 64 PTE pages
	eas := make([]arch.EffectiveAddr, min(n, span))
	for i, pg := range rng.Perm(span)[:len(eas)] {
		eas[i] = tlbBase + arch.EffectiveAddr(pg*arch.PageSize)
	}
	walk := make([]arch.EffectiveAddr, n)
	for i := range walk {
		walk[i] = eas[rng.IntN(len(eas))]
	}
	var mapNS, walkNS, unmapNS []float64
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		for i, ea := range eas {
			if err := tbl.Map(ea, arch.PFN(i), false); err != nil {
				return err
			}
		}
		t1 := time.Now()
		for _, ea := range walk {
			if _, _, _, ok := tbl.Walk(ea); !ok {
				return fmt.Errorf("pagetable probe: walk of mapped %v failed", ea)
			}
		}
		t2 := time.Now()
		for _, ea := range eas {
			tbl.Unmap(ea)
		}
		t3 := time.Now()
		mapNS = append(mapNS, float64(t1.Sub(t0).Nanoseconds())/float64(len(eas)))
		walkNS = append(walkNS, float64(t2.Sub(t1).Nanoseconds())/float64(len(walk)))
		unmapNS = append(unmapNS, float64(t3.Sub(t2).Nanoseconds())/float64(len(eas)))
	}
	if tbl.Count() != 0 {
		return fmt.Errorf("pagetable probe: %d entries left after unmapping all", tbl.Count())
	}
	put("pagetable.map.ns", stats.Summarize(mapNS).Median)
	put("pagetable.walk.ns", stats.Summarize(walkNS).Median)
	put("pagetable.unmap.ns", stats.Summarize(unmapNS).Median)
	return nil
}

// runLines is the length of each run the cache and machine probes
// issue: 32 lines of 32 bytes, one page.
const runLines = 32

// cacheProbe times cache.(*Cache).Access, AccessRunCount and
// machine.(*Machine).MemAccessRun over a working set twice (scalar)
// and eight times (runs) the 603's 16 KB L1.
func cacheProbe(seed uint64, n int, put func(name string, v float64)) {
	rng := rand.New(rand.NewPCG(seed, 3))
	c := cache.New("D", 16<<10, 4, 32)
	scalar := make([]arch.PhysAddr, n)
	runs := make([]arch.PhysAddr, max(n/runLines, 1))
	for i := range scalar {
		scalar[i] = arch.PhysAddr(rng.IntN(32<<10)) &^ 31
	}
	for i := range runs {
		runs[i] = arch.PhysAddr(rng.IntN(128<<10)) &^ 31
	}
	put("cache.access.ns", nsPerOp(n, func() {
		for _, pa := range scalar {
			c.Access(pa, cache.ClassUser, false)
		}
	}))
	runBatch := func() {
		for _, pa := range runs {
			c.AccessRunCount(pa, runLines, 32, cache.ClassUser, false)
		}
	}
	put("cache.access_run_count.ns_per_line", nsPerOp(len(runs)*runLines, runBatch))
	put("cache.access_run_count.allocs_per_op", allocsPerOp(len(runs), runBatch))

	m := machine.New(clock.PPC603At180())
	put("machine.mem_access_run.ns_per_line", nsPerOp(len(runs)*runLines, func() {
		for _, pa := range runs {
			m.MemAccessRun(pa, runLines, 32, cache.ClassUser, false, false)
		}
	}))
}

// spanMetrics reruns s at the span size with every kernel call timed,
// and reports each op's p50 and p99; an op s never calls (every op, for
// a nil s) reads 0.
func spanMetrics(s *synth, seed uint64, sz size, put func(name string, v float64)) error {
	rec := &spans{}
	if s != nil {
		if _, err := s.run(seed, sz.spanSize(), rec, nil); err != nil {
			return fmt.Errorf("kernel-call probe: %w", err)
		}
	}
	for o, ds := range rec {
		us := make([]float64, len(ds))
		for i, d := range ds {
			us[i] = float64(d.Nanoseconds()) / 1e3
		}
		sort.Float64s(us)
		put("kernel."+opNames[o]+".p50_us", stats.Summarize(us).Median)
		put("kernel."+opNames[o]+".p99_us", nearestRank(us, 0.99))
	}
	return nil
}

// nearestRank is the q-quantile of sorted xs by the nearest-rank rule.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[int(math.Ceil(q*float64(len(xs))))-1]
}

// profLayers are the modules host time is attributed to: packages of
// the simulator by name, the Go runtime, and everything else.
var profLayers = []string{
	"cache", "ppc", "kernel", "machine", "pagetable", "trace",
	"telemetry", "mmtrace", "report", "runtime", "other",
}

// layerOf maps a profiled function name to its layer.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "mmutricks/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		if slices.Contains(profLayers, pkg) && pkg != "runtime" && pkg != "other" {
			return pkg
		}
		return "other"
	}
	for _, p := range []string{"runtime.", "runtime/", "internal/runtime/"} {
		if strings.HasPrefix(fn, p) {
			return "runtime"
		}
	}
	return "other"
}

// selfShares attributes the flat samples of a CPU profile to layers
// with go tool pprof -top. The shares sum to 1 (all 0 for an empty
// profile).
func selfShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", "-unit=ms", profile)
	var errb bytes.Buffer
	cmd.Stderr = &errb
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, errb.Bytes())
	}
	flat := map[string]float64{}
	total := 0.0
	sc := bufio.NewScanner(bytes.NewReader(out))
	header := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof: unparsable flat value %q", f[0])
		}
		flat[layerOf(f[5])] += ms
		total += ms
	}
	shares := map[string]float64{}
	for _, l := range profLayers {
		shares[l] = ratio(flat[l], total)
	}
	return shares, nil
}
