package kernel

import (
	"testing"

	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
	"mmutricks/internal/clock"
)

func TestKernelIOWindowWithoutBAT(t *testing.T) {
	k, _ := bootTask(t, clock.PPC604At185(), Unoptimized())
	before := k.M.Mon.Snapshot()
	k.KernelFBWrite(0, 4096)
	d := k.M.Mon.Delta(before)
	if d.TLBMisses == 0 {
		t.Fatal("unBATted I/O window should take TLB misses")
	}
	// The device pages must be cache-inhibited: no fills for class IO.
	if k.M.DCache.Stats().Fills[cache.ClassIO] != 0 {
		t.Fatal("device accesses filled the cache")
	}
	if err := k.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestKernelIOWindowWithBAT(t *testing.T) {
	cfg := Unoptimized()
	cfg.MapIOWithBAT = true
	k, _ := bootTask(t, clock.PPC604At185(), cfg)
	before := k.M.Mon.Snapshot()
	k.KernelFBWrite(0, 4096)
	d := k.M.Mon.Delta(before)
	if d.TLBMisses != 0 || d.BATHits == 0 {
		t.Fatalf("I/O BAT not used: %+v", d)
	}
}

func TestIoremapFBPTEPath(t *testing.T) {
	k, task := bootTask(t, clock.PPC604At185(), Unoptimized())
	addr := k.IoremapFB()
	if addr != UserFBBase {
		t.Fatalf("IoremapFB returned %v", addr)
	}
	before := k.M.Mon.Snapshot()
	k.FBWrite(0, 8*arch.PageSize)
	d := k.M.Mon.Delta(before)
	if d.MinorFaults != 8 {
		t.Fatalf("FB pages should demand-fault as minor: %+v", d)
	}
	// The mappings point at device frames, cache-inhibited.
	e, ok := task.PT.Lookup(UserFBBase)
	if !ok || !e.Inhibited() || e.RPN() != FBPhysBase.Frame() {
		t.Fatalf("FB mapping wrong: %+v ok=%v", e, ok)
	}
	// Re-blitting uses the TLB: entries occupied by the frame buffer.
	before = k.M.Mon.Snapshot()
	k.FBWrite(0, 8*arch.PageSize)
	d = k.M.Mon.Delta(before)
	if d.MinorFaults != 0 {
		t.Fatal("refault on mapped FB pages")
	}
	if d.TLBHits == 0 {
		t.Fatal("PTE-mapped FB should use the TLB")
	}
	if err := k.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if k.IoremapFB() != UserFBBase {
		t.Fatal("second IoremapFB should return the same window")
	}
}

func TestIoremapFBBATPath(t *testing.T) {
	cfg := Optimized()
	cfg.FBBAT = true
	k, _ := bootTask(t, clock.PPC604At185(), cfg)
	k.IoremapFB()
	before := k.M.Mon.Snapshot()
	k.FBWrite(0, 32*arch.PageSize)
	d := k.M.Mon.Delta(before)
	if d.MinorFaults != 0 || d.TLBMisses != 0 {
		t.Fatalf("BAT-mapped FB should bypass faults and TLB: %+v", d)
	}
	if d.BATHits == 0 {
		t.Fatal("no BAT hits on the FB")
	}
}

func TestFBBATSwitchedPerProcess(t *testing.T) {
	cfg := Optimized()
	cfg.FBBAT = true
	k, x := bootTask(t, clock.PPC604At185(), cfg)
	other := k.Fork() // no FB mapping
	k.IoremapFB()     // current task (x) maps it

	// While x runs, the FB BAT is live.
	if _, _, ok := k.M.MMU.DBAT.Lookup(UserFBBase); !ok {
		t.Fatal("FB BAT not loaded for the mapping task")
	}
	// Switch to the other task: the BAT must be gone (it would leak
	// device access into a process that never mapped it).
	k.Switch(other)
	if _, _, ok := k.M.MMU.DBAT.Lookup(UserFBBase); ok {
		t.Fatal("FB BAT leaked across context switch")
	}
	k.Switch(x)
	if _, _, ok := k.M.MMU.DBAT.Lookup(UserFBBase); !ok {
		t.Fatal("FB BAT not restored")
	}
}

// TestFBBATRelievesTLBPressure is the §5.1 proposal's point: an
// X-server-like task blitting the frame buffer while working through
// its own data stops competing for TLB slots once the FB has its own
// BAT.
func TestFBBATRelievesTLBPressure(t *testing.T) {
	run := func(bat bool) uint64 {
		cfg := Optimized()
		cfg.FBBAT = bat
		k, _ := bootTask(t, clock.PPC604At185(), cfg)
		k.IoremapFB()
		ws := k.SysMmap(200) // the server's own pixmaps/state
		k.UserTouchPages(ws, 200)
		k.FBWrite(0, fbBytes) // touch the whole FB once
		before := k.M.Mon.Snapshot()
		for round := 0; round < 6; round++ {
			k.FBWrite(0, fbBytes/2)
			k.UserTouchPages(ws, 200)
		}
		return k.M.Mon.Delta(before).TLBMisses
	}
	pte, bat := run(false), run(true)
	if bat >= pte {
		t.Fatalf("FB BAT should cut TLB misses: %d (BAT) vs %d (PTE)", bat, pte)
	}
}
