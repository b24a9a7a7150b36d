package kernel

import (
	"testing"

	"mmutricks/internal/arch"
	"mmutricks/internal/clock"
)

// overcommit drives the machine past physical memory: ~7600 frames are
// free after boot; three tasks touching 3000 anon pages each must swap.
func overcommit(t *testing.T, cfg Config) (*Kernel, []*Task) {
	t.Helper()
	k, first := bootTask(t, clock.PPC604At185(), cfg)
	tasks := []*Task{first}
	img := k.images["test"]
	for i := 0; i < 2; i++ {
		tasks = append(tasks, k.Spawn(img))
	}
	for _, tk := range tasks {
		k.Switch(tk)
		k.SysBrk(3100)
	}
	return k, tasks
}

func TestSwapUnderPressure(t *testing.T) {
	k, tasks := overcommit(t, Optimized())
	for _, tk := range tasks {
		k.Switch(tk)
		k.UserTouchPages(UserDataBase, 3000)
	}
	st := k.Swap()
	if st.Outs == 0 {
		t.Fatal("overcommit did not swap")
	}
	if st.OnDevice == 0 {
		t.Fatal("nothing resident on the swap device")
	}
	if k.M.Mem.FreeFrames() < 0 {
		t.Fatal("negative free frames")
	}
	if err := k.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestSwapInRestoresPages(t *testing.T) {
	k, tasks := overcommit(t, Optimized())
	a := tasks[0]
	for _, tk := range tasks {
		k.Switch(tk)
		k.UserTouchPages(UserDataBase, 3000)
	}
	// Task a's early pages were stolen; touching them faults them back.
	k.Switch(a)
	before := k.M.Mon.Snapshot()
	k.UserTouchPages(UserDataBase, 64)
	d := k.M.Mon.Delta(before)
	if d.SwapIns == 0 {
		t.Fatal("no swap-ins when re-touching stolen pages")
	}
	for pg := 0; pg < 64; pg++ {
		ea := UserDataBase + arch.EffectiveAddr(pg*arch.PageSize)
		if _, ok := a.PT.Lookup(ea); !ok {
			t.Fatalf("page %d not restored", pg)
		}
	}
	if err := k.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestSwapOutFlushesTranslations(t *testing.T) {
	k, tasks := overcommit(t, Optimized())
	before := k.M.Mon.Snapshot()
	for _, tk := range tasks {
		k.Switch(tk)
		k.UserTouchPages(UserDataBase, 3000)
	}
	d := k.M.Mon.Delta(before)
	if d.FlushPage < d.SwapOuts {
		t.Fatalf("every swap-out must flush its page: %d flushes, %d outs", d.FlushPage, d.SwapOuts)
	}
}

func TestSwapExitDropsSlots(t *testing.T) {
	k, tasks := overcommit(t, Optimized())
	for _, tk := range tasks {
		k.Switch(tk)
		k.UserTouchPages(UserDataBase, 3000)
	}
	victim := tasks[2]
	k.Switch(victim)
	k.Exit()
	k.Wait(victim)
	for key := range k.swapped {
		if key.pid == victim.PID {
			t.Fatal("exited task's pages still on the swap device")
		}
	}
	if err := k.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestSwapThrashCostsTime(t *testing.T) {
	// Two passes over an overcommitted set must be much slower than
	// over a resident set — the thrash penalty is simulated I/O.
	run := func(pages int) clock.Cycles {
		k, _ := bootTask(t, clock.PPC604At185(), Optimized())
		k.SysBrk(pages + 64)
		k.UserTouchPages(UserDataBase, pages)
		start := k.M.Led.Now()
		for pass := 0; pass < 2; pass++ {
			k.UserTouchPages(UserDataBase, pages)
		}
		return (k.M.Led.Now() - start) / clock.Cycles(pages)
	}
	resident := run(2000) // fits
	thrash := run(9000)   // > free RAM by itself
	if thrash < 10*resident {
		t.Fatalf("thrash per-page cost (%d cycles) should dwarf resident cost (%d)", thrash, resident)
	}
}

func TestSwapDeterminism(t *testing.T) {
	run := func() (clock.Cycles, uint64) {
		k, tasks := overcommit(t, Optimized())
		for _, tk := range tasks {
			k.Switch(tk)
			k.UserTouchPages(UserDataBase, 3000)
		}
		return k.M.Led.Now(), k.M.Mon.SwapOuts
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 || s1 != s2 {
		t.Fatalf("swap nondeterministic: %d/%d vs %d/%d", c1, s1, c2, s2)
	}
}

// TestReclaimWrapsPastCursor reaches the wrapped-cursor state at small
// scale. A reclaim batch that ends exactly on the task's last resident
// anonymous page leaves the cursor there; the task then faults its
// first pages back in, below the cursor. With free memory drained, the
// next fault must still find those pages: the sweep wraps instead of
// reporting nothing reclaimable.
func TestReclaimWrapsPastCursor(t *testing.T) {
	k, task := bootTask(t, clock.PPC604At185(), Optimized())
	const pages = 8
	k.SysBrk(pages)
	k.UserTouchPages(UserDataBase, pages)
	if got := k.reclaimPages(pages); got != pages {
		t.Fatalf("reclaimPages(%d) freed %d", pages, got)
	}
	last := (UserDataBase + arch.EffectiveAddr((pages-1)*arch.PageSize)).PageNumber()
	if task.reclaimCursor != last {
		t.Fatalf("cursor = %#x, want the last page %#x", task.reclaimCursor, last)
	}
	k.UserTouchPages(UserDataBase, 2)

	var held []arch.PFN
	for k.M.Mem.FreeFrames() > 0 {
		pfn, _ := k.M.Mem.AllocFrame()
		held = append(held, pfn)
	}
	before := k.M.Mon.SwapOuts
	k.UserTouchPages(UserDataBase+2*arch.PageSize, 1)
	if k.M.Mon.SwapOuts == before {
		t.Fatal("the fault under memory pressure swapped nothing out")
	}
	for _, pfn := range held {
		k.M.Mem.FreeFrame(pfn)
	}
	if err := k.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
