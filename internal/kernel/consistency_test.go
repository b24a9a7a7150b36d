package kernel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mmutricks/internal/arch"
	"mmutricks/internal/clock"
	"mmutricks/internal/machine"
)

// TestConsistencyAfterBasicOps checks the coherence invariants after
// ordinary activity, on both CPU kinds and both flush modes.
func TestConsistencyAfterBasicOps(t *testing.T) {
	for _, model := range []clock.CPUModel{clock.PPC603At180(), clock.PPC604At185()} {
		for _, cfg := range []Config{Unoptimized(), Optimized()} {
			k, _ := bootTask(t, model, cfg)
			k.UserTouchPages(UserDataBase, 32)
			k.UserRun(0, 500)
			addr := k.SysMmap(64)
			k.UserTouch(addr, 64*arch.PageSize)
			k.SysMunmap(addr, 64)
			child := k.Fork()
			k.Switch(child)
			k.UserTouchPages(UserDataBase, 8)
			if err := k.CheckConsistency(); err != nil {
				t.Errorf("%s lazy=%v: %v", model.Name, cfg.LazyFlush, err)
			}
		}
	}
}

// TestConsistencyAfterLazyFlushChurn is the interesting case: zombies
// everywhere, yet every *live* cached translation must still be right.
func TestConsistencyAfterLazyFlushChurn(t *testing.T) {
	k, task := bootTask(t, clock.PPC604At185(), Optimized())
	img, _ := k.images["test"]
	for i := 0; i < 12; i++ {
		k.UserTouchPages(UserDataBase, 40)
		k.Exec(img)
	}
	k.UserTouchPages(UserDataBase, 40)
	if err := k.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// The hash table should indeed be full of zombies right now —
	// the checker must tolerate them.
	occ := k.M.MMU.HTAB.Occupancy()
	livePTEs := k.M.MMU.HTAB.LiveOccupancy(k)
	if occ <= livePTEs {
		t.Fatalf("expected zombie PTEs in the table: occ=%d live=%d", occ, livePTEs)
	}
	_ = task
}

// TestConsistencyRandomWorkload drives a random (seeded) op mix and
// checks invariants throughout — a lightweight model-checking pass over
// the kernel's MMU state machine.
func TestConsistencyRandomWorkload(t *testing.T) {
	for _, cfgName := range []string{"unoptimized", "optimized", "optimized+htab"} {
		cfg, _ := Named(cfgName)
		for _, model := range []clock.CPUModel{clock.PPC603At180(), clock.PPC604At185()} {
			k, _ := bootTask(t, model, cfg)
			rng := rand.New(rand.NewSource(42))
			var mappings []struct {
				addr  arch.EffectiveAddr
				pages int
			}
			tasks := []*Task{k.Current()}
			for step := 0; step < 300; step++ {
				switch rng.Intn(14) {
				case 0, 1, 2:
					k.UserTouchPages(UserDataBase+arch.EffectiveAddr(rng.Intn(256)*arch.PageSize), 4)
				case 3:
					k.UserRun(rng.Intn(4), 200)
				case 4:
					pages := 1 + rng.Intn(48)
					addr := k.SysMmap(pages)
					k.UserTouch(addr, pages*arch.PageSize/2)
					mappings = append(mappings, struct {
						addr  arch.EffectiveAddr
						pages int
					}{addr, pages})
				case 5:
					if len(mappings) > 0 {
						m := mappings[len(mappings)-1]
						mappings = mappings[:len(mappings)-1]
						k.SysMunmap(m.addr, m.pages)
					}
				case 6:
					if len(tasks) < 5 {
						child := k.Fork()
						tasks = append(tasks, child)
					}
				case 7:
					k.Switch(tasks[rng.Intn(len(tasks))])
					mappings = nil // mappings belong to another task now
				case 8:
					k.SysNull()
				case 9:
					k.RunIdleFor(5_000)
				case 10:
					// Heap churn: grow then shrink (the §7 range flush).
					k.SysBrk(1024 + rng.Intn(128))
				case 11:
					name := "f" + string(rune('a'+rng.Intn(8)))
					k.SysCreat(name, rng.Intn(3))
					if rng.Intn(2) == 0 {
						k.SysUnlink(name)
					}
				case 12:
					k.SysSignal(0, 100)
					k.SysKill(k.Current())
				case 13:
					cur := k.Current()
					if !cur.fbMapped {
						k.IoremapFB()
					}
					k.FBWrite(rng.Intn(1<<20), 2048)
				}
				if step%50 == 49 {
					if err := k.CheckConsistency(); err != nil {
						t.Fatalf("%s/%s step %d: %v", model.Name, cfgName, step, err)
					}
				}
			}
			if err := k.CheckConsistency(); err != nil {
				t.Fatalf("%s/%s final: %v", model.Name, cfgName, err)
			}
		}
	}
}

// TestConsistencyDetectsCorruption proves the checker is not vacuous:
// one case per invariant deliberately corrupts the matching piece of
// translation state (TLB, hash table, VSID map, frame accounting) and
// asserts the checker fires. Each corruption is undone afterwards so
// the bootTask end-of-test sweep re-proves the repair.
func TestConsistencyDetectsCorruption(t *testing.T) {
	dataVPN := func(task *Task) arch.VPN {
		return arch.VPNOf(task.Segs[int(UserDataBase>>28)], UserDataBase)
	}
	cases := []struct {
		name string
		// corrupt breaks one invariant and returns the repair.
		corrupt func(t *testing.T, k *Kernel, task *Task) (undo func())
	}{
		{
			// Invariant 1: a TLB entry pointing a live VSID's page at
			// the wrong frame.
			name: "tlb-wrong-frame",
			corrupt: func(t *testing.T, k *Kernel, task *Task) func() {
				vpn := dataVPN(task)
				k.M.MMU.TLB.Insert(vpn, 0x1234, false, false)
				return func() { k.M.MMU.TLB.InvalidateVPN(vpn) }
			},
		},
		{
			// Invariant 2: a live hash-table PTE rewritten to the wrong
			// frame.
			name: "htab-wrong-frame",
			corrupt: func(t *testing.T, k *Kernel, task *Task) func() {
				pte, _, _ := k.M.MMU.HTAB.Search(dataVPN(task), k.M)
				if pte == nil {
					t.Fatal("setup: data page has no hash-table PTE")
				}
				old := *pte
				*pte = old.WithRPN(old.RPN() ^ 0x3ff)
				return func() { *pte = old }
			},
		},
		{
			// Invariant 3: two live tasks sharing a VSID.
			name: "vsid-aliasing",
			corrupt: func(t *testing.T, k *Kernel, task *Task) func() {
				other := k.Fork()
				old := other.Segs[0]
				other.Segs[0] = task.Segs[0]
				return func() { other.Segs[0] = old }
			},
		},
		{
			// Invariant 4: a live page tree mapping an unallocated frame.
			name: "frame-free-mapped",
			corrupt: func(t *testing.T, k *Kernel, task *Task) func() {
				free := arch.PFN(0)
				found := false
				for i := 0; i < k.M.Mem.Frames(); i++ {
					if !k.M.Mem.InUse(arch.PFN(i)) {
						free, found = arch.PFN(i), true
						break
					}
				}
				if !found {
					t.Fatal("setup: no free frame to forge a mapping to")
				}
				ea := UserDataBase + arch.EffectiveAddr(200*arch.PageSize)
				if _, present := task.PT.Lookup(ea); present {
					t.Fatalf("setup: %v unexpectedly mapped", ea)
				}
				if err := task.PT.Map(ea, free, false); err != nil {
					t.Fatalf("setup: forging mapping: %v", err)
				}
				return func() { task.PT.Unmap(ea) }
			},
		},
		{
			// Invariant 5 (users identity): an mm_users reference with
			// no task holding it — the signature of a missed mmput.
			name: "mm-users-leak",
			corrupt: func(t *testing.T, k *Kernel, task *Task) func() {
				task.mm.Users++
				return func() { task.mm.Users-- }
			},
		},
		{
			// Invariant 5 (count identity): a lost existence reference —
			// the signature of a double mmdrop, one step from a
			// use-after-free of the descriptor.
			name: "mm-count-borrow-lost",
			corrupt: func(t *testing.T, k *Kernel, task *Task) func() {
				task.mm.Count--
				return func() { task.mm.Count++ }
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k, task := bootTask(t, clock.PPC604At185(), Unoptimized())
			k.UserTouchPages(UserDataBase, 4)
			if err := k.CheckConsistency(); err != nil {
				t.Fatalf("clean state flagged: %v", err)
			}
			undo := tc.corrupt(t, k, task)
			if err := k.CheckConsistency(); err == nil {
				t.Fatal("corruption not detected")
			}
			undo()
			if err := k.CheckConsistency(); err != nil {
				t.Fatalf("undo left corruption behind: %v", err)
			}
		})
	}
}

// TestConsistencyReportsLowestTLBSet plants two TLB entries that
// disagree with their canonical frames and requires every sweep to
// report the same one, the entry in the lower set: the TLB is walked
// in set order, not through a map whose order varies run to run.
func TestConsistencyReportsLowestTLBSet(t *testing.T) {
	k, task := bootTask(t, clock.PPC604At185(), Unoptimized())
	k.UserTouchPages(UserDataBase, 4)
	seg := task.Segs[UserDataBase.SegIndex()]
	// Plant the higher set first, so insertion order cannot pass for
	// set order.
	hi := arch.VPNOf(seg, UserDataBase+2*arch.PageSize)
	lo := arch.VPNOf(seg, UserDataBase+arch.PageSize)
	sets := uint32(k.M.MMU.TLB.Entries() / 2) // two ways a set
	if lo.PageIndex()%sets >= hi.PageIndex()%sets {
		t.Fatalf("setup: %#x is not in a lower set than %#x", lo, hi)
	}
	k.M.MMU.TLB.Insert(hi, 0x1234, false, false)
	k.M.MMU.TLB.Insert(lo, 0x1235, false, false)
	defer k.M.MMU.InvalidateVPNAll(lo)
	defer k.M.MMU.InvalidateVPNAll(hi)
	want := fmt.Sprintf("DTLB entry %#x -> frame 0x1235", lo)
	for i := 0; i < 50; i++ {
		err := k.CheckConsistency()
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("sweep %d: %v, want the lower set's entry reported (%s ...)", i, err, want)
		}
	}
}

// TestConsistencyAllocsIndependentOfMappings holds the sweep to a
// fixed allocation count once its scratch is sized: four tasks with
// 1024 mapped pages each allocate no more per sweep than four with 64,
// so neither mapped pages nor RAM can make the machine-check handler's
// repeated sweeps grow the heap.
func TestConsistencyAllocsIndependentOfMappings(t *testing.T) {
	const bound = 0
	allocs := func(pages int) float64 {
		k := New(machine.New(clock.PPC604At185()), Optimized())
		img := k.LoadImage("test", 4)
		for i := 0; i < 4; i++ {
			k.Switch(k.Spawn(img))
			k.UserTouchPages(UserDataBase, pages)
		}
		if err := k.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if err := k.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
	big, small := allocs(1024), allocs(64)
	if big != small || big > bound {
		t.Fatalf("a sweep allocates %.0f times with 1024 pages a task and %.0f with 64; want the same count, at most %d", big, small, bound)
	}
}

// TestConsistencyNamesBothPrivateOwners maps one task's private frame
// into a second task's tree as that task's own: the sweep reports the
// frame with the first owner it met (the lower PID) and the second.
func TestConsistencyNamesBothPrivateOwners(t *testing.T) {
	k, task := bootTask(t, clock.PPC604At185(), Unoptimized())
	k.UserTouchPages(UserDataBase, 4)
	e, ok := task.PT.Lookup(UserDataBase)
	if !ok || !task.owns(e.RPN()) {
		t.Fatal("setup: data page not mapped and owned")
	}
	other := k.Spawn(k.images["test"])
	ea := UserDataBase + arch.EffectiveAddr(200*arch.PageSize)
	if err := other.PT.Map(ea, e.RPN(), false); err != nil {
		t.Fatal(err)
	}
	other.ownFrame(e.RPN())
	want := fmt.Sprintf("frame %#x privately owned by tasks %d and %d", uint32(e.RPN()), task.PID, other.PID)
	if err := k.CheckConsistency(); err == nil || err.Error() != want {
		t.Fatalf("sweep: %v, want %q", err, want)
	}
	other.disownFrame(e.RPN())
	other.PT.Unmap(ea)
}
