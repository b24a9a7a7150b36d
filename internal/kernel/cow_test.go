package kernel

import (
	"testing"

	"mmutricks/internal/arch"
	"mmutricks/internal/clock"
)

func cowConfig() Config {
	c := Optimized()
	c.COWFork = true
	return c
}

func TestCOWForkSharesThenBreaks(t *testing.T) {
	k, parent := bootTask(t, clock.PPC604At185(), cowConfig())
	k.UserTouch(UserDataBase, arch.PageSize) // fault one heap page (a write happens)
	pe, _ := parent.PT.Lookup(UserDataBase)

	child := k.Fork()
	ce, ok := child.PT.Lookup(UserDataBase)
	if !ok {
		t.Fatal("child missing COW mapping")
	}
	if ce.RPN() != pe.RPN() {
		t.Fatal("COW fork should share the frame")
	}
	if !parent.isCOW(UserDataBase.PageNumber()) || !child.isCOW(UserDataBase.PageNumber()) {
		t.Fatal("both sides should be marked COW")
	}

	// Child reads: still shared (UserTouchPages issues loads only).
	k.Switch(child)
	k.UserTouchPages(UserDataBase, 1)
	if ce2, _ := child.PT.Lookup(UserDataBase); ce2.RPN() != pe.RPN() {
		t.Fatal("a read must not break sharing")
	}

	// Child writes: the page is copied for the child.
	before := k.M.Mon.Snapshot()
	k.UserTouch(UserDataBase, 256) // includes a store
	d := k.M.Mon.Delta(before)
	if d.MinorFaults == 0 {
		t.Fatal("COW break should count a fault")
	}
	ce3, _ := child.PT.Lookup(UserDataBase)
	if ce3.RPN() == pe.RPN() {
		t.Fatal("write did not break sharing")
	}
	if !child.owns(ce3.RPN()) {
		t.Fatal("child must own its copy")
	}
	if child.isCOW(UserDataBase.PageNumber()) {
		t.Fatal("child page still marked COW after break")
	}

	// Parent writes: it is the last sharer, so it reclaims the frame
	// without copying.
	k.Switch(parent)
	free0 := k.M.Mem.FreeFrames()
	k.UserTouch(UserDataBase, 256)
	if k.M.Mem.FreeFrames() != free0 {
		t.Fatal("last-sharer break must not allocate")
	}
	if !parent.owns(pe.RPN()) {
		t.Fatal("parent should own the frame exclusively again")
	}
	if err := k.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestCOWForkIsCheaperThanEagerCopy(t *testing.T) {
	cost := func(cow bool) clock.Cycles {
		cfg := Optimized()
		cfg.COWFork = cow
		k, _ := bootTask(t, clock.PPC604At185(), cfg)
		k.UserTouch(UserDataBase, 32*arch.PageSize) // 32 heap pages
		start := k.M.Led.Now()
		child := k.Fork()
		_ = child
		return k.M.Led.Now() - start
	}
	eager, cow := cost(false), cost(true)
	if cow >= eager {
		t.Fatalf("COW fork (%d cycles) should be cheaper than eager copy (%d)", cow, eager)
	}
}

func TestCOWExitReleasesSharedFrames(t *testing.T) {
	k, parent := bootTask(t, clock.PPC604At185(), cowConfig())
	free0 := k.M.Mem.FreeFrames() + freeHeld(k, parent)
	k.UserTouch(UserDataBase, 8*arch.PageSize)
	child := k.Fork()
	k.Switch(child)
	k.UserTouch(UserDataBase, 2*arch.PageSize) // break two pages
	k.Exit()
	k.Wait(child)
	// Parent still alive and its pages intact (shared frames keep one
	// reference).
	k.Switch(parent)
	k.UserTouchPages(UserDataBase, 8)
	if err := k.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// Now the parent exits too: everything must come back.
	k.Exit()
	k.Wait(parent)
	if got := k.M.Mem.FreeFrames(); got != free0 {
		t.Fatalf("frame leak after COW exits: %d free, want %d", got, free0)
	}
	if len(k.sharedFrames) != 0 {
		t.Fatalf("shared-frame table not empty: %v", k.sharedFrames)
	}
}

// freeHeld counts frames a live task holds (for leak baselines).
func freeHeld(k *Kernel, t *Task) int {
	n := t.owned.len()
	n += t.PT.PTEPages() + 1 // PTE pages + PGD
	return n
}

func TestCOWThreeWaySharing(t *testing.T) {
	k, parent := bootTask(t, clock.PPC604At185(), cowConfig())
	k.UserTouch(UserDataBase, arch.PageSize)
	pe, _ := parent.PT.Lookup(UserDataBase)

	c1 := k.Fork()
	k.Switch(c1)
	c2 := k.Fork() // grandchild shares the same frame
	e2, _ := c2.PT.Lookup(UserDataBase)
	if e2.RPN() != pe.RPN() {
		t.Fatal("grandchild should share the original frame")
	}
	if k.sharedFrames[pe.RPN()] != 3 {
		t.Fatalf("refcount = %d, want 3", k.sharedFrames[pe.RPN()])
	}
	// Break in c2: refcount drops to 2, parent/c1 still share.
	k.Switch(c2)
	k.UserTouch(UserDataBase, 128)
	if k.sharedFrames[pe.RPN()] != 2 {
		t.Fatalf("refcount after break = %d, want 2", k.sharedFrames[pe.RPN()])
	}
	if err := k.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestCOWMunmapReleasesReferences(t *testing.T) {
	k, _ := bootTask(t, clock.PPC604At185(), cowConfig())
	addr := k.SysMmap(4)
	k.UserTouch(addr, 4*arch.PageSize)
	child := k.Fork()
	k.Switch(child)
	e, _ := child.PT.Lookup(addr)
	if k.sharedFrames[e.RPN()] != 2 {
		t.Fatalf("refcount = %d", k.sharedFrames[e.RPN()])
	}
	k.SysMunmap(addr, 4)
	if k.sharedFrames[e.RPN()] != 1 {
		t.Fatalf("refcount after munmap = %d, want 1", k.sharedFrames[e.RPN()])
	}
	if err := k.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestCOWFlushesStaleTranslations(t *testing.T) {
	// After a COW break the writer's old translation must be gone from
	// TLB and hash table — otherwise it would keep writing the shared
	// frame. The consistency checker would catch the PT mismatch; this
	// test drives the exact sequence.
	k, parent := bootTask(t, clock.PPC604At185(), cowConfig())
	k.UserTouch(UserDataBase, arch.PageSize)
	child := k.Fork()
	k.Switch(child)
	k.UserTouchPages(UserDataBase, 1) // load: cache the shared translation
	k.UserTouch(UserDataBase, 128)    // store: break
	if err := k.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	_ = parent
}
