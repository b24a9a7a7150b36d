package report

import (
	"context"
	"fmt"
	"sort"

	"mmutricks/internal/arch"
	"mmutricks/internal/clock"
	"mmutricks/internal/kbuild"
	"mmutricks/internal/kernel"
	"mmutricks/internal/machine"
	"mmutricks/internal/telemetry"
)

func init() {
	register(Experiment{ID: "sec7-ondemand", Title: "On-demand zombie scanning — the design §7 rejected", Run: runSec7OnDemand})
	register(Experiment{ID: "sec10-futures", Title: "Locking the cache and cache preloads (§10 future work)", Run: runSec10})
	register(Experiment{ID: "profile", Title: "Where the cycles go: kernel-path profile of the compile (§4 methodology)", Run: runProfile})
}

// ---------------------------------------------------------------------
// §4's methodology as an artifact: a flat kernel profile of the
// kernel-compile workload under each configuration. This is the view
// the authors worked from ("detailed analysis of low level system
// performance"), regenerated.
// ---------------------------------------------------------------------

func runProfile(ctx context.Context, s Scale) *Table {
	cfg := kbuild.Default()
	cfg.Units = s.pick(4, 12)
	cfg.WorkPages = 320
	cfg.Passes = 2
	cfg.StrayRefs = 8
	run := func(kcfg kernel.Config) *telemetry.Phases {
		k := kernel.New(machine.New(clock.PPC603At180()), kcfg)
		k.M.Ph.Enable(telemetry.Options{})
		kbuild.Run(k, cfg)
		mustConsistent(k)
		return k.M.Ph
	}
	cfgs := []kernel.Config{kernel.Unoptimized(), kernel.Optimized()}
	var res [2]*telemetry.Phases
	RowSet(ctx, 2, func(i int) { res[i] = run(cfgs[i]) })
	unopt, opt := res[0], res[1]

	var rows [][]string
	for _, ph := range telemetry.AllPhases {
		rows = append(rows, []string{
			ph.String(),
			pct(unopt.Fraction(ph)),
			pct(opt.Fraction(ph)),
		})
	}
	return &Table{
		ID: "profile", Title: "kernel-path cycle shares on the compile workload (603/180)",
		Headers: []string{"path", "unoptimized", "optimized"},
		Rows:    rows,
		Paper: [][]string{
			{"(no table — this regenerates the instrumented-kernel view the paper's process was built on: \"extensive use of quantitative measures and detailed analysis of low level system performance\")"},
		},
		Notes: []string{
			"idle share is I/O wait and scales with the fixed disk constant; the interesting movement is miss-handler and syscall share collapsing into user time",
		},
	}
}

// ---------------------------------------------------------------------
// §7 — the rejected on-demand reclaim design, measured: same mean cost,
// wildly inconsistent per-operation latency.
// ---------------------------------------------------------------------

// sec7LatencyProfile measures per-operation latency of a small
// page-fault burst while zombie pressure steadily refills the hash
// table between operations (the refill is a free white-box injection so
// it adds no cycles of its own). Under idle reclaim the background
// sweeps keep the table clean and every operation is uniform; under the
// rejected on-demand design the table periodically reaches scarcity and
// one unlucky operation eats a synchronous full-table sweep.
func sec7LatencyProfile(onDemand bool, rounds int) (mean, p99, worst float64, scans uint64) {
	cfg := kernel.Optimized()
	cfg.UseHTAB = true
	cfg.IdleReclaim = !onDemand
	cfg.OnDemandReclaim = onDemand
	k := kernel.New(machine.New(clock.PPC604At185()), cfg)
	img := k.LoadImage("churn", 8)
	worker := k.Spawn(img)
	k.Switch(worker)

	htab := k.M.MMU.HTAB
	ctxs := k.ContextAllocator()
	// replenish injects n zombie PTEs (a freshly retired context's
	// worth of translations) without charging cycles — it stands in
	// for other processes' churn happening elsewhere in time.
	replenish := func(n int) {
		for n > 0 {
			ctx, _ := ctxs.Alloc()
			vs := ctxs.VSIDs(ctx)
			ctxs.Retire(ctx)
			for page := 0; page < 64 && n > 0; page++ {
				ea := kernel.UserDataBase + arch.EffectiveAddr(page*arch.PageSize)
				htab.Insert(arch.VPNOf(vs[ea.SegIndex()], ea), arch.PFN(page), false, nil, k.ZombieVSID)
				n--
			}
		}
	}
	// Start near scarcity.
	for htab.Occupancy() < htab.Capacity()*97/100 {
		replenish(512)
	}

	var lat []float64
	var region arch.EffectiveAddr
	for i := 0; i < rounds; i++ {
		replenish(800)
		if !onDemand {
			k.RunIdleFor(25_000) // idle reclaim gets its usual slice
		}
		if i%60 == 0 {
			region = k.SysMmap(240)
		}
		start := k.M.Led.Now()
		k.UserTouchPages(region+arch.EffectiveAddr((i%60)*4*arch.PageSize), 4)
		lat = append(lat, k.M.Led.Micros(k.M.Led.Now()-start))
	}
	sort.Float64s(lat)
	var sum float64
	for _, v := range lat {
		sum += v
	}
	mean = sum / float64(len(lat))
	p99 = lat[len(lat)*99/100]
	worst = lat[len(lat)-1]
	mustConsistent(k)
	return mean, p99, worst, k.M.Mon.OnDemandScans
}

func runSec7OnDemand(ctx context.Context, s Scale) *Table {
	rounds := s.pick(150, 600)
	type prof struct {
		mean, p99, worst float64
		scans            uint64
	}
	var res [2]prof
	RowSet(ctx, 2, func(i int) {
		m, p, w, sc := sec7LatencyProfile(i == 1, rounds)
		res[i] = prof{m, p, w, sc}
	})
	im, i99, iw := res[0].mean, res[0].p99, res[0].worst
	om, o99, ow, scans := res[1].mean, res[1].p99, res[1].worst, res[1].scans
	return &Table{
		ID: "sec7-ondemand", Title: "per-operation latency: idle-task reclaim vs synchronous on-demand sweeps (604/185)",
		Headers: []string{"metric", "idle reclaim (shipped)", "on-demand sweep (rejected)", ""},
		Rows: [][]string{
			{"mean op latency", us(im), us(om), ""},
			{"p99 op latency", us(i99), us(o99), ""},
			{"worst op latency", us(iw), us(ow), ""},
			{"worst/mean", ratio(iw, im), ratio(ow, om), ""},
			{"synchronous sweeps taken", "0", fmt.Sprintf("%d", scans), ""},
		},
		Paper: [][]string{
			{"", "\"a nice balance ... decent usage ratio\"", "\"performance would be inconsistent if we had to occasionally scan the hash table\"", ""},
		},
		Notes: []string{
			"the paper gives no numbers for the rejected design; this experiment quantifies the inconsistency that motivated the idle-task approach",
			"shape target: comparable means, far worse tail for the on-demand design",
		},
	}
}

// ---------------------------------------------------------------------
// §10 — the future-work proposals, measured.
// ---------------------------------------------------------------------

func runSec10(ctx context.Context, s Scale) *Table {
	// §10.1 on the kernel compile: a cache lock makes even the §9
	// cached-clearing pathology harmless.
	cfg := kbuild.Default()
	cfg.Units = s.pick(6, 24)
	cfg.HotPages = 6
	cfg.WaitEvery = 10
	kb := func(lock bool) kbuild.Result {
		kcfg := kernel.Optimized()
		kcfg.UseHTAB = true
		kcfg.IdleClear = kernel.IdleClearCached
		kcfg.IdleCacheLock = lock
		k := kernel.New(machine.New(clock.PPC604At185()), kcfg)
		r := kbuild.Run(k, cfg)
		mustConsistent(k)
		return r
	}
	// §10.2 on a switch-heavy loop whose tasks storm the cache, so the
	// incoming task's state is always cold at the switch.
	sw := func(preload bool) float64 {
		kcfg := kernel.Optimized()
		kcfg.CachePreload = preload
		k := kernel.New(machine.New(clock.PPC604At185()), kcfg)
		img := k.LoadImage("storm", 4)
		a := k.Spawn(img)
		b := k.Spawn(img)
		storm := func() { k.UserTouch(kernel.UserDataBase+0x40000, 32*1024) }
		k.Switch(a)
		storm()
		k.Switch(b)
		storm()
		iters := s.pick(40, 200)
		var inSwitch clock.Cycles
		for i := 0; i < iters; i++ {
			t0 := k.M.Led.Now()
			k.Switch(a)
			inSwitch += k.M.Led.Now() - t0
			storm()
			t0 = k.M.Led.Now()
			k.Switch(b)
			inSwitch += k.M.Led.Now() - t0
			storm()
		}
		mustConsistent(k)
		return k.M.Led.Micros(inSwitch) / float64(2*iters)
	}
	// Both §10.1 runs and both §10.2 runs are mutually independent.
	var kbRes [2]kbuild.Result
	var swRes [2]float64
	RowSet(ctx, 4, func(i int) {
		if i < 2 {
			kbRes[i] = kb(i == 1)
		} else {
			swRes[i-2] = sw(i == 3)
		}
	})
	base, lock := kbRes[0], kbRes[1]
	plain, pre := swRes[0], swRes[1]

	return &Table{
		ID: "sec10-futures", Title: "the §10 proposals, measured (604/185)",
		Headers: []string{"experiment", "without", "with", "change"},
		Rows: [][]string{
			{"§10.1 idle cache lock: kernel compile w/ cached clearing (sim s)",
				fmt.Sprintf("%.4f", base.ComputeSeconds), fmt.Sprintf("%.4f", lock.ComputeSeconds),
				pct(1-lock.ComputeSeconds/base.ComputeSeconds) + " faster"},
			{"§10.2 switch-path preloads: cold context switch cost",
				us(plain), us(pre), pct(1-pre/plain) + " faster"},
		},
		Paper: [][]string{
			{"§10.1: \"not using the cache on certain data in critical sections ... can improve performance\"", "", "", ""},
			{"§10.2: \"significant gains with intelligent use of cache preloads in context switching and interrupt entry\"", "", "", ""},
		},
		Notes: []string{
			"the paper proposes but does not measure these; the lock neutralizes the §9 cached-clearing pollution, and preloads shave the cold-switch stalls",
			"preload gains are an upper bound: the model assumes perfect overlap of the dcbt fills",
		},
	}
}
