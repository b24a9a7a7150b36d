package main

import (
	"math/rand"
	randv2 "math/rand/v2"

	"mmutricks/internal/arch"
	"mmutricks/internal/clock"
	"mmutricks/internal/kbuild"
	"mmutricks/internal/kernel"
)

// mmChurn is kbuild's synthetic kernel compile, the paper's "typical
// user load" (§4): per compilation unit, make forks and execs cc1,
// which reads its source and headers with a disk wait per read, maps a
// 160-page arena and an 8-page buffer, runs its compile passes, grows
// and shrinks its heap with brk, unmaps, exits and is reaped. The idle
// task runs in every disk wait. churn transcribes kbuild.Run call for
// call, so that the benchmark can time each kernel call from outside;
// TestChurnIsKbuild holds the two to the same simulated result.
var mmChurn = synth{
	kernels: []kernelSpec{
		{clock.PPC603At133(), func() kernel.Config {
			c := kernel.Optimized()
			c.UseHTAB = true
			c.COWFork = true
			return c
		}()},
		{clock.PPC604At185(), kernel.Optimized()},
	},
	// Six compiles of kbuild.Default's 24 units on each kernel make a
	// pass of about 1.3 s. One compile of more units would not do: every
	// unit's source file stays resident, so memory pressure would grow.
	boots: 6,
	build: func(k *kernel.Kernel, rng *randv2.Rand, sz size) func(*spans) {
		cfg := kbuild.Default()
		cfg.Units = sz.units
		cfg.Seed = rng.Int64()
		return churn(k, cfg)
	},
}

// churn does kbuild.Run's set-up on k and returns its compile loop.
// kbuild.Default makes no stray references, so churn leaves them out.
func churn(k *kernel.Kernel, cfg kbuild.Config) func(*spans) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	cc := k.LoadImage("cc1", cfg.CCTextPages)
	makeImg := k.LoadImage("make", 8)
	maker := k.Spawn(makeImg)
	k.Switch(maker)
	k.UserTouch(kernel.UserDataBase, 8*arch.PageSize)
	shared := k.CreateFile(cfg.SourcePages)
	sources := make([]*kernel.File, cfg.Units)
	for i := range sources {
		sources[i] = k.CreateFile(cfg.SourcePages)
	}
	hotPages := max(cfg.HotPages, 2)
	cutoff := k.Config().FlushRangeCutoff

	return func(rec *spans) {
		wait := func() {
			t0 := rec.start()
			k.RunIdleFor(clock.Cycles(cfg.IOWaitCycles))
			rec.stop(opIdle, t0)
		}
		read := func(f *kernel.File, off int, dst arch.EffectiveAddr, n int) {
			t0 := rec.start()
			k.SysRead(f, off, dst, n)
			rec.stop(opRead, t0)
		}
		run := func(textPage, n int) {
			t0 := rec.start()
			k.UserRun(textPage, n)
			rec.stop(opUserRun, t0)
		}
		touch := func(ea arch.EffectiveAddr, n int) {
			t0 := rec.start()
			k.UserTouch(ea, n)
			rec.stop(opUserTouch, t0)
		}
		mmap := func(pages int) arch.EffectiveAddr {
			t0 := rec.start()
			addr := k.SysMmap(pages)
			rec.stop(opMmap, t0)
			return addr
		}
		munmap := func(addr arch.EffectiveAddr, pages int) {
			o := opMunmapSmall
			if pages > cutoff {
				o = opMunmapLarge
			}
			t0 := rec.start()
			k.SysMunmap(addr, pages)
			rec.stop(o, t0)
		}
		brk := func(pages int) {
			t0 := rec.start()
			k.SysBrk(pages)
			rec.stop(opBrk, t0)
		}
		switchTo := func(t *kernel.Task) {
			t0 := rec.start()
			k.Switch(t)
			rec.stop(opSwitch, t0)
		}

		for unit := 0; unit < cfg.Units; unit++ {
			switchTo(maker)
			run(0, 3000)
			read(sources[unit], 0, kernel.UserDataBase+0x40000, 4096)
			wait()

			t0 := rec.start()
			child := k.Fork()
			rec.stop(opFork, t0)
			switchTo(child)
			t0 = rec.start()
			k.Exec(cc)
			rec.stop(opExec, t0)
			wait()

			for off := 0; off < sources[unit].Size(); off += 16 * 1024 {
				read(sources[unit], off, kernel.UserDataBase+0x80000, 16*1024)
				wait()
			}
			for off := 0; off < shared.Size(); off += 16 * 1024 {
				read(shared, off, kernel.UserDataBase+0x80000, 16*1024)
			}

			arena := mmap(cfg.WorkPages)
			small := mmap(8)
			for pass := 0; pass < cfg.Passes; pass++ {
				hotText := rng.Intn(cfg.CCTextPages - 4)
				for step := 0; step < cfg.WorkPages; step++ {
					run(hotText+step%4, 600)
					touch(arena+arch.EffectiveAddr((step%hotPages)*arch.PageSize), arch.PageSize)
					touch(arena+arch.EffectiveAddr(((step+2)%hotPages)*arch.PageSize), arch.PageSize)
					if rng.Intn(6) == 0 {
						cold := hotPages + rng.Intn(cfg.WorkPages-hotPages)
						touch(arena+arch.EffectiveAddr(cold*arch.PageSize), 512)
					}
					if cfg.WaitEvery > 0 && step%cfg.WaitEvery == cfg.WaitEvery-1 {
						touch(kernel.UserStackTop-arch.EffectiveAddr(2*arch.PageSize), 128)
						wait()
					}
				}
			}

			brk(1024 + 80)
			touch(kernel.UserDataBase+arch.EffectiveAddr(1024*arch.PageSize), 40*arch.PageSize)
			brk(1024)

			munmap(small, 8)
			munmap(arena, cfg.WorkPages)
			t0 = rec.start()
			k.Exit()
			rec.stop(opExit, t0)
			switchTo(maker)
			t0 = rec.start()
			k.Wait(child)
			rec.stop(opWait, t0)
			wait()
		}
	}
}
