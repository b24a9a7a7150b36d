package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mmutricks/bench/stats"
	"mmutricks/internal/report"
)

// passResult is what one pass of a workload measured.
type passResult struct {
	setup, wall, cpu time.Duration // as measured on the host
	// speed is the pass's reference seconds per host second (1 when no
	// speedMeter ran); the end-to-end timings are the host times scaled
	// by it.
	speed    float64
	rssMB    float64
	cycles   uint64 // simulated cycles of the timed phase
	sum      string // checksum every pass of a run must reproduce
	ctr      counters
	registry *registryRun // the report workload's traced pass
}

// runner drives one workload at one seed.
type runner interface {
	// warmup runs the discarded warm-up pass and returns the checksum
	// every later pass must reproduce; it fails when that checksum
	// differs from the committed one.
	warmup() (string, error)
	// pass runs one timed pass.
	pass() (passResult, error)
	// traced runs the pass the CPU profile covers.
	traced() (passResult, error)
}

// env is what a runner needs from outside the benchmark.
type env struct {
	mmureport string // the mmureport binary
	sz        size
	golden    *golden   // nil skips the committed-checksum gates
	ref       *refModel // the yardstick of host speed
}

type workload struct {
	name  string
	synth *synth // nil for the report workload
}

// workloads are the benchmark's workloads in BENCHMARK.json order;
// bench/README.md records why each was chosen.
var workloads = []workload{
	{"report-quick", nil},
	{"xlate-scatter", &xlateScatter},
	{"mm-churn", &mmChurn},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) runner(e *env, seed uint64) runner {
	if w.synth == nil {
		r := &reportRunner{bin: e.mmureport, exp: e.sz.report, ref: e.ref}
		if e.golden != nil {
			r.golden = e.golden.Report
		}
		return r
	}
	r := &synthRunner{s: *w.synth, seed: seed, sz: e.sz, ref: e.ref}
	if e.golden != nil {
		r.golden = e.golden.Synthetic[w.name][fmt.Sprint(seed)]
	}
	return r
}

type synthRunner struct {
	s      synth
	seed   uint64
	sz     size
	golden string // committed checksum for this seed; "" when none is
	ref    *refModel
}

func (r *synthRunner) warmup() (string, error) {
	p, err := r.s.run(r.seed, r.sz, nil, nil)
	if err != nil {
		return "", err
	}
	if r.golden != "" && p.sum != r.golden {
		return p.sum, fmt.Errorf("checksum %s, committed %s for seed %d: simulated results changed", p.sum, r.golden, r.seed)
	}
	return p.sum, nil
}

// pass runs one pass in a fresh peak-RSS window: freed heap goes back
// to the OS and the kernel's high-water mark restarts, so the peak read
// after the pass is this pass's, not the run's so far. The pass's peak
// is what it adds to the resident set it starts from, which holds the
// benchmark's own reference model.
func (r *synthRunner) pass() (passResult, error) {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return passResult{}, fmt.Errorf("reset peak RSS: %w", err)
	}
	base, err := peakRSSMB("/proc/self/status")
	if err != nil {
		return passResult{}, err
	}
	p, err := r.s.run(r.seed, r.sz, nil, newSpeedMeter(r.ref.slice))
	if err != nil {
		return p, err
	}
	peak, err := peakRSSMB("/proc/self/status")
	p.rssMB = peak - base
	return p, err
}

func (r *synthRunner) traced() (passResult, error) { return r.s.run(r.seed, r.sz, nil, nil) }

// metric is one reported metric and the summary of its samples.
type metric struct {
	name, unit string
	s          stats.Summary
}

// outcome is one run of one workload.
type outcome struct {
	attempted, failed int
	metrics           []metric
	// notes are printed beside the metrics but are not in the result.
	notes []metric
}

func (o *outcome) put(name, unit string, samples ...float64) {
	o.metrics = append(o.metrics, metric{name, unit, stats.Summarize(samples)})
}

// measure runs workload w: the warm-up pass, then timed passes until
// seconds have elapsed, one after another. With traced it then runs
// the profiled pass and the layer probes and reports the per-layer
// metrics; otherwise the end-to-end ones. Passes that fail or do not
// reproduce the warm-up checksum are counted and reported on stderr,
// and the error returned is the last of them.
func measure(w workload, e *env, seed uint64, seconds float64, traced bool) (outcome, error) {
	r := w.runner(e, seed)
	o := outcome{attempted: 1}
	ref, err := r.warmup()
	if err != nil {
		o.failed++
		return o, fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	var passes []passResult
	var passErr error
	for start := time.Now(); o.attempted == 1 || time.Since(start).Seconds() < seconds; {
		o.attempted++
		p, err := r.pass()
		if err == nil && p.sum != ref {
			err = fmt.Errorf("checksum %s, warm-up %s", p.sum, ref)
		}
		if err != nil {
			o.failed++
			passErr = fmt.Errorf("%s pass %d: %w", w.name, o.attempted-1, err)
			fmt.Fprintf(os.Stderr, "mmubench: %v\n", passErr)
			continue
		}
		passes = append(passes, p)
	}
	if len(passes) == 0 {
		return o, passErr
	}
	col := func(f func(p passResult) float64) []float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		return xs
	}
	wall := col(func(p passResult) float64 { return p.wall.Seconds() })
	if !traced {
		o.put("norm_wall_s", "s", col(func(p passResult) float64 { return p.wall.Seconds() * p.speed })...)
		o.put("norm_cpu_s", "s", col(func(p passResult) float64 { return p.cpu.Seconds() * p.speed })...)
		o.put("norm_sim_mcycles_per_s", "Mcycles/s", col(func(p passResult) float64 { return float64(p.cycles) / 1e6 / (p.wall.Seconds() * p.speed) })...)
		o.put("peak_rss_mb", "MB", col(func(p passResult) float64 { return p.rssMB })...)
		o.put("setup_s", "s", col(func(p passResult) float64 { return p.setup.Seconds() * p.speed })...)
		o.notes = append(o.notes,
			metric{"wall_s", "s", stats.Summarize(wall)},
			metric{"host_speed", "ref-s/s", stats.Summarize(col(func(p passResult) float64 { return p.speed }))})
		return o, passErr
	}
	if err := o.layers(w, r, ref, e, seed, stats.Summarize(wall).Median); err != nil {
		o.failed++
		return o, err
	}
	return o, passErr
}

// layers runs the profiled pass, the kernel-call probe of w's own loop
// and the layer probes. A metric of a layer w does not reach from
// outside reads 0: the report.* metrics on the synthetic workloads, and
// the kernel.* spans and simulated counters on the report workload,
// whose machines live inside report.RunOne.
func (o *outcome) layers(w workload, r runner, ref string, e *env, seed uint64, medWall float64) error {
	prof, err := os.CreateTemp("", "mmubench-*.pprof")
	if err != nil {
		return err
	}
	defer os.Remove(prof.Name())
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return err
	}
	o.attempted++
	tp, err := r.traced()
	// Collect the pass's remaining garbage inside the window, so the GC
	// metrics charge the pass for all of it whenever the last automatic
	// cycle happened to start.
	runtime.GC()
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err == nil && tp.sum != ref {
		err = fmt.Errorf("traced pass checksum %s, warm-up %s", tp.sum, ref)
	}
	if err != nil {
		return err
	}
	shares, err := selfShares(prof.Name())
	if err != nil {
		return err
	}

	reg := tp.registry
	if reg == nil {
		reg = &registryRun{}
	}
	for _, x := range report.All() {
		o.put("report."+x.ID+".wall_ms", "ms", reg.wallMS[x.ID])
	}
	o.put("report.paper_err_pct", "%", paperErrPct(reg.tables))

	put := func(name string, v float64) { o.put(name, unitOf(name), v) }
	if err := spanMetrics(w.synth, seed, e.sz, put); err != nil {
		return err
	}

	c := tp.ctr
	mon := c.mon
	o.put("kernel.minor_faults", "count", float64(mon.MinorFaults))
	o.put("kernel.major_faults", "count", float64(mon.MajorFaults))
	o.put("kernel.flush_page", "count", float64(mon.FlushPage))
	o.put("kernel.flush_range", "count", float64(mon.FlushRange))
	o.put("kernel.flush_context", "count", float64(mon.FlushContext))
	o.put("kernel.zombies_reclaimed", "count", float64(mon.ZombiesReclaimed))
	o.put("kernel.idle_pages_cleared", "count", float64(mon.IdlePagesCleared))
	o.put("kernel.cleared_page_hit_ratio", "ratio", ratio(float64(c.clearedHits), float64(c.clearedHits+c.clearedMisses)))
	o.put("ppc.tlb_miss_ratio", "ratio", mon.TLBMissRate())
	o.put("ppc.htab_hit_ratio", "ratio", mon.HTABHitRate())
	o.put("ppc.htab_primary_share", "ratio", ratio(float64(mon.HTABPrimaryHits), float64(mon.HTABHits)))
	o.put("ppc.htab_evict_valid_ratio", "ratio", ratio(float64(mon.HTABEvictsValid), float64(mon.HTABInserts)))
	o.put("ppc.htab_flush_search_loads", "count", float64(mon.HTABFlushSearches))
	o.put("ppc.hash_miss_faults", "count", float64(mon.HashMissFaults))
	o.put("ppc.hw_walks", "count", float64(mon.HardwareWalks))
	o.put("ppc.sw_reloads", "count", float64(mon.SoftwareReloads))
	o.put("cache.l1d_miss_ratio", "ratio", ratio(float64(c.dMiss), float64(c.dAcc)))
	o.put("cache.l1i_miss_ratio", "ratio", ratio(float64(c.iMiss), float64(c.iAcc)))

	if err := translateProbe(seed, e.sz.replay, put); err != nil {
		return err
	}
	if err := pagetableProbe(seed, e.sz.replay, put); err != nil {
		return err
	}
	cacheProbe(seed, e.sz.replay, put)

	for _, l := range profLayers {
		o.put(l+".self_share", "ratio", shares[l])
	}
	o.put("runtime.alloc_mb", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	o.put("runtime.gc_cycles", "count", float64(m1.NumGC-m0.NumGC))
	o.put("runtime.gc_pause_ms", "ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	o.put("bench.trace_overhead_frac", "ratio", tp.wall.Seconds()/medWall-1)
	return nil
}

// unitOf gives the unit of a probe metric from its name's suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, ".ns"), strings.HasSuffix(name, ".ns_per_line"):
		return "ns"
	}
	return "allocs/op"
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is a process's peak resident set (VmHWM) in MB, from its
// /proc status file.
func peakRSSMB(status string) (float64, error) {
	b, err := os.ReadFile(status)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", status)
}
