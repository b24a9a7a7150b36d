package kernel

import (
	"testing"

	"mmutricks/internal/arch"
	"mmutricks/internal/clock"
)

func TestMmapFileSharesPageCache(t *testing.T) {
	k, task := bootTask(t, clock.PPC604At185(), Optimized())
	f := k.CreateFile(16)
	free0 := k.M.Mem.FreeFrames()
	addr := k.SysMmapFile(f, 0, 16)
	before := k.M.Mon.Snapshot()
	k.UserTouchPages(addr, 16)
	d := k.M.Mon.Delta(before)
	if d.MinorFaults != 16 || d.MajorFaults != 0 {
		t.Fatalf("file mmap faults: %d minor %d major, want 16/0", d.MinorFaults, d.MajorFaults)
	}
	e, _ := task.PT.Lookup(addr)
	if e.RPN() != f.Pages[0] {
		t.Fatal("mapping does not share the page-cache frame")
	}
	// munmap returns only the PTE page; the file keeps its frames.
	k.SysMunmap(addr, 16)
	if got := k.M.Mem.FreeFrames(); got < free0-1 {
		t.Fatalf("file frames were freed by munmap: %d vs %d", got, free0)
	}
	if err := k.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestMmapFilePartialWindow(t *testing.T) {
	k, task := bootTask(t, clock.PPC604At185(), Optimized())
	f := k.CreateFile(8)
	addr := k.SysMmapFile(f, 4, 2) // pages 4..5
	k.UserTouchPages(addr, 2)
	e, _ := task.PT.Lookup(addr)
	if e.RPN() != f.Pages[4] {
		t.Fatal("window offset ignored")
	}
}

func TestMmapFileOutOfRangePanics(t *testing.T) {
	k, _ := bootTask(t, clock.PPC604At185(), Optimized())
	f := k.CreateFile(4)
	defer func() {
		if recover() == nil {
			t.Error("mapping past EOF should panic")
		}
	}()
	k.SysMmapFile(f, 2, 4)
}

func TestMmapFileLatencyMatchesAnonShape(t *testing.T) {
	// The §7 mmap story holds for file mappings too: the unmap of a
	// large window is dominated by flush strategy.
	cost := func(cfg Config) clock.Cycles {
		k, _ := bootTask(t, clock.PPC604At185(), cfg)
		f := k.CreateFile(512)
		start := k.M.Led.Now()
		for i := 0; i < 4; i++ {
			a := k.SysMmapFile(f, 0, 512)
			k.SysMunmap(a, 512)
		}
		return k.M.Led.Now() - start
	}
	eager := Optimized()
	eager.UseHTAB = true
	eager.LazyFlush = false
	eager.FlushRangeCutoff = 0
	tuned := Optimized()
	tuned.UseHTAB = true
	ce, ct := cost(eager), cost(tuned)
	if ct > ce/10 {
		t.Fatalf("tuned file mmap (%d) should be >=10x cheaper than eager (%d)", ct, ce)
	}
	_ = arch.PageSize
}
