package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"time"

	"mmutricks/internal/clock"
	"mmutricks/internal/hwmon"
	"mmutricks/internal/kbuild"
	"mmutricks/internal/kernel"
	"mmutricks/internal/machine"
	"mmutricks/internal/trace"
)

// The synthetic workloads call the kernel's public entry points
// directly, one call after another (a closed loop with one client).
// Each pass boots fresh kernels from the seed, so every pass of a seed
// must end in the same simulated state.

// op names a kernel entry point the synthetic loops time.
type op int

const (
	opSwitch op = iota
	opUserRef
	opFork
	opExec
	opExit
	opWait
	opRead
	opMmap
	opBrk
	opMunmapSmall
	opMunmapLarge
	opUserRun
	opUserTouch
	opIdle
	numOps
)

var opNames = [numOps]string{
	"switch", "user_ref", "fork", "exec", "exit", "wait", "read", "mmap", "brk",
	"munmap_small", "munmap_large", "user_run", "user_touch", "idle",
}

// spans holds the host duration of every timed kernel call. A nil
// *spans records nothing, so an untraced pass pays one branch a call.
type spans [numOps][]time.Duration

func (s *spans) start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

func (s *spans) stop(o op, t0 time.Time) {
	if s != nil {
		s[o] = append(s[o], time.Since(t0))
	}
}

// size scales the synthetic workloads, the layer probes and the
// report registry. full is what the benchmark runs; tiny is the smoke
// test's.
type size struct {
	quanta int // xlate-scatter quanta per boot
	pages  int // xlate-scatter pages per task
	units  int // mm-churn compilation units per kernel per pass
	replay int // operations per layer-probe batch
	// report is the one experiment the report workloads run; "" runs
	// the whole registry through mmureport -all.
	report string
}

var (
	full = size{quanta: 2000, pages: 1024, units: kbuild.Default().Units, replay: 1 << 15}
	tiny = size{quanta: 10, pages: 128, units: 1, replay: 1 << 9, report: "table2"}
)

// spanSize is the size the kernel-call probe runs at: a whole mm-churn
// pass, whose rarest calls (fork, exec, exit, wait) come once a unit,
// and 1/16 of an xlate-scatter pass, which still times 640,000 user
// references.
func (sz size) spanSize() size {
	sz.quanta /= 16
	return sz
}

type kernelSpec struct {
	model clock.CPUModel
	cfg   kernel.Config
}

// synth is a workload of two kernels, each booted and then driven by
// the closure build returns.
type synth struct {
	kernels []kernelSpec
	// boots is how many times a pass boots each kernel, with its own
	// random stream, and runs the loop on it (0 means once).
	boots int
	// build spawns and prefaults the workload's tasks on k (the timed
	// set-up) and returns the loop that is the timed pass.
	build func(k *kernel.Kernel, rng *rand.Rand, sz size) func(rec *spans)
}

// xlateScatter: four tasks of sz.pages prefaulted pages each, scalar
// user references from Zipfian and pointer-chase streams, a context
// switch every 256-1023 references. On the 603 every TLB miss is a
// software reload walking the page-table tree; on the 604 a hardware
// hash-table search.
var xlateScatter = synth{
	kernels: []kernelSpec{
		{clock.PPC603At180(), kernel.Optimized()},
		{clock.PPC604At185(), kernel.Optimized()},
	},
	// Four boots of each kernel, rather than one of four times the
	// quanta, keep each stretch of timed work near sliceEvery.
	boots: 4,
	build: func(k *kernel.Kernel, rng *rand.Rand, sz size) func(*spans) {
		img := k.LoadImage("scatter", 4)
		tasks := make([]*kernel.Task, 4)
		gens := make([]trace.Generator, len(tasks))
		for i := range tasks {
			tasks[i] = k.Spawn(img)
			k.Switch(tasks[i])
			k.UserTouchPages(kernel.UserDataBase, sz.pages)
			if i%2 == 0 {
				gens[i] = trace.NewZipfian(kernel.UserDataBase, sz.pages, rng.Uint32())
			} else {
				gens[i] = trace.NewPointerChase(kernel.UserDataBase, sz.pages, rng.Uint32())
			}
		}
		return func(rec *spans) {
			for q := 0; q < sz.quanta; q++ {
				i := q % len(tasks)
				t0 := rec.start()
				k.Switch(tasks[i])
				rec.stop(opSwitch, t0)
				for n := 256 + rng.IntN(768); n > 0; n-- {
					ea := gens[i].Next()
					t0 := rec.start()
					k.UserRef(ea, false)
					rec.stop(opUserRef, t0)
				}
			}
		}
	},
}

// counters are the public simulated counters a synthetic pass reads.
type counters struct {
	mon                        hwmon.Counters
	clearedHits, clearedMisses uint64
	dAcc, dMiss, iAcc, iMiss   uint64
}

func readCounters(k *kernel.Kernel) counters {
	mem := k.M.Mem.Stats()
	return counters{
		mon:           k.M.Mon.Snapshot(),
		clearedHits:   mem.ClearedHits,
		clearedMisses: mem.ClearedMisses,
		dAcc:          k.M.DCache.Stats().TotalAccesses(),
		dMiss:         k.M.DCache.Stats().TotalMisses(),
		iAcc:          k.M.ICache.Stats().TotalAccesses(),
		iMiss:         k.M.ICache.Stats().TotalMisses(),
	}
}

// addDelta accumulates after-before into c.
func (c *counters) addDelta(before, after counters) {
	c.mon.Add(after.mon.Delta(before.mon))
	c.clearedHits += after.clearedHits - before.clearedHits
	c.clearedMisses += after.clearedMisses - before.clearedMisses
	c.dAcc += after.dAcc - before.dAcc
	c.dMiss += after.dMiss - before.dMiss
	c.iAcc += after.iAcc - before.iAcc
	c.iMiss += after.iMiss - before.iMiss
}

// run runs one pass of s: per kernel boot, the timed set-up and then
// the timed loop, whose time meter (nil for none) normalizes. The
// checksum covers each kernel's final cycle count and every hwmon
// counter; a failed consistency sweep or a panic in the simulator fails
// the pass.
func (s synth) run(seed uint64, sz size, rec *spans, meter *speedMeter) (p passResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("simulator panic: %v", r)
		}
	}()
	h := sha256.New()
	for i := 0; i < len(s.kernels)*max(s.boots, 1); i++ {
		ks := s.kernels[i%len(s.kernels)]
		rng := rand.New(rand.NewPCG(seed, uint64(i)))
		t0 := time.Now()
		k := kernel.New(machine.New(ks.model), ks.cfg)
		loop := s.build(k, rng, sz)
		p.setup += time.Since(t0)

		before := readCounters(k)
		c0, cpu0, t1 := k.M.Led.Now(), cpuTime(), time.Now()
		loop(rec)
		d := time.Since(t1)
		p.wall += d
		p.cpu += cpuTime() - cpu0
		meter.add(d)
		p.cycles += uint64(k.M.Led.Now() - c0)
		p.ctr.addDelta(before, readCounters(k))
		if err := k.CheckConsistency(); err != nil {
			return p, fmt.Errorf("%s kernel inconsistent: %w", ks.model.Name, err)
		}
		fmt.Fprint(h, k.M.Led.Now(), k.M.Mon.Values())
	}
	p.sum = hex.EncodeToString(h.Sum(nil)[:8])
	p.speed = meter.factor()
	return p, nil
}
