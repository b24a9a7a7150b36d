package kernel

import (
	"reflect"
	"testing"

	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
	"mmutricks/internal/clock"
	"mmutricks/internal/faultinject"
	"mmutricks/internal/hwmon"
	"mmutricks/internal/machine"
)

// The batched reference pipeline's contract is exact equivalence: a Run
// must leave every observable — hwmon counters, cycle ledger, cache
// statistics, TLB contents — in precisely the state the scalar loop
// would. These tests drive two identically booted kernels, one through
// AccessRun and one through the scalar access loop, and compare the
// full observable state after every step.

// scalarRun replays r reference-for-reference through the scalar access
// path — the ground truth the batched pipeline must reproduce. Each
// reference's store flag comes from the run's mask.
func scalarRun(k *Kernel, t *Task, r Run) {
	for i := 0; i < r.Count; i++ {
		k.access(t, r.EA+arch.EffectiveAddr(i*r.Stride), r.Instr, r.Class, r.Stores.At(i))
	}
}

// runObs is the complete observable state the equivalence proof
// compares. Anything the harness can render derives from these. The
// dirty-line count catches a wrong store flag at the step that sets
// it, not only at a later castout.
type runObs struct {
	Mon    hwmon.Counters
	Cycles clock.Cycles
	DStats cache.Stats
	IStats cache.Stats
	DDirty int
	DTLB   map[arch.VPN]arch.PFN
	ITLB   map[arch.VPN]arch.PFN
}

func observeRun(k *Kernel) runObs {
	return runObs{
		Mon:    k.M.Mon.Snapshot(),
		Cycles: k.M.Led.Now(),
		DStats: *k.M.DCache.Stats(),
		IStats: *k.M.ICache.Stats(),
		DDirty: k.M.DCache.DirtyLines(),
		DTLB:   k.M.MMU.TLB.Snapshot(),
		ITLB:   k.M.MMU.ITLB.Snapshot(),
	}
}

// runStep is one step of a differential script: a batch of references
// and/or a translation-invalidating event, applied identically to both
// twins.
type runStep struct {
	name string
	run  *Run
	op   func(k *Kernel, t *Task)
}

func diffRun(t *testing.T, model clock.CPUModel, cfg Config, steps []runStep) {
	t.Helper()
	kb, tb := bootTask(t, model, cfg)
	ks, ts := bootTask(t, model, cfg)
	if b, s := observeRun(kb), observeRun(ks); !reflect.DeepEqual(b, s) {
		t.Fatalf("twins diverge before the script runs:\nbatched %+v\nscalar  %+v", b, s)
	}
	for _, st := range steps {
		if st.run != nil {
			kb.AccessRun(tb, *st.run)
			scalarRun(ks, ts, *st.run)
		}
		if st.op != nil {
			st.op(kb, tb)
			st.op(ks, ts)
		}
		b, s := observeRun(kb), observeRun(ks)
		if !reflect.DeepEqual(b, s) {
			t.Fatalf("%s: batched and scalar state diverge\nbatched %+v\nscalar  %+v", st.name, b, s)
		}
	}
}

func TestAccessRunMatchesScalar(t *testing.T) {
	line := 32
	steps := []runStep{
		{name: "cold user stream, word stride", run: &Run{EA: UserDataBase, Count: 3000, Stride: 4, Class: cache.ClassUser}},
		{name: "warm re-walk", run: &Run{EA: UserDataBase, Count: 3000, Stride: 4, Class: cache.ClassUser}},
		{name: "write stream, line stride", run: &Run{EA: UserDataBase, Count: 600, Stride: line, Class: cache.ClassUser, Stores: cache.AllStores}},
		{name: "castout pressure, page-crossing", run: &Run{EA: UserDataBase + 0x8000, Count: 4096, Stride: line, Class: cache.ClassUser, Stores: cache.AllStores}},
		{name: "single reference", run: &Run{EA: UserDataBase + 12, Count: 1, Stride: 4, Class: cache.ClassUser}},
		{name: "two-line stride", run: &Run{EA: UserDataBase, Count: 300, Stride: 2 * line, Class: cache.ClassUser}},
		{name: "unaligned sub-line stride", run: &Run{EA: UserDataBase + 6, Count: 2000, Stride: 12, Class: cache.ClassUser}},
		{name: "instruction fetch stream", run: &Run{EA: UserTextBase, Count: 500, Stride: line, Class: cache.ClassUser, Instr: true}},
		{name: "tlb flush then re-walk",
			op: func(k *Kernel, _ *Task) { k.M.MMU.InvalidateTLBs() }},
		{name: "stream after flush must re-translate", run: &Run{EA: UserDataBase, Count: 2000, Stride: 4, Class: cache.ClassUser}},
		{name: "segment reload then re-walk",
			op: func(k *Kernel, _ *Task) {
				k.M.MMU.SetSegment(int(UserDataBase>>28), k.M.MMU.Segment(int(UserDataBase>>28)))
			}},
		{name: "stream after segment reload", run: &Run{EA: UserDataBase, Count: 1000, Stride: 4, Class: cache.ClassUser}},
		{name: "single-vpn invalidate",
			op: func(k *Kernel, _ *Task) { k.M.MMU.InvalidateVPNAll(k.M.MMU.VPNFor(UserDataBase)) }},
		{name: "stream after vpn invalidate", run: &Run{EA: UserDataBase, Count: 64, Stride: 4, Class: cache.ClassUser}},
		// Mixed load/store runs: one store per four references at each
		// start phase, a mask whose phase rotates at page splits (the
		// first page takes 13 references), an unaligned EA, and a
		// sub-line stride whose line groups mix loads and stores.
		{name: "mixed mask, store at phase 3", run: &Run{EA: UserDataBase + 0x10000, Count: 130, Stride: line, Class: cache.ClassUser, Stores: 0x8}},
		{name: "mixed mask, store at phase 2", run: &Run{EA: UserDataBase + 0x11000, Count: 130, Stride: line, Class: cache.ClassUser, Stores: 0x4}},
		{name: "mixed mask, store at phase 1", run: &Run{EA: UserDataBase + 0x12000, Count: 130, Stride: line, Class: cache.ClassUser, Stores: 0x2}},
		{name: "mixed mask, store at phase 0", run: &Run{EA: UserDataBase + 0x13000, Count: 130, Stride: line, Class: cache.ClassUser, Stores: 0x1}},
		{name: "mixed mask, page-crossing", run: &Run{EA: UserDataBase + 0x14000 - 13*arch.EffectiveAddr(line), Count: 1000, Stride: line, Class: cache.ClassUser, Stores: 0x8}},
		{name: "mixed mask, unaligned EA", run: &Run{EA: UserDataBase + 0x18006, Count: 300, Stride: line, Class: cache.ClassUser, Stores: 0x5}},
		{name: "mixed mask, sub-line stride", run: &Run{EA: UserDataBase + 0x19004, Count: 3000, Stride: 12, Class: cache.ClassUser, Stores: 0x8}},
		{name: "mixed mask, warm re-walk", run: &Run{EA: UserDataBase + 0x10000, Count: 520, Stride: line, Class: cache.ClassUser, Stores: 0x3}},
	}
	for _, model := range []clock.CPUModel{clock.PPC603At180(), clock.PPC604At185()} {
		for _, cfg := range []struct {
			name string
			cfg  Config
		}{{"unoptimized", Unoptimized()}, {"optimized", Optimized()}} {
			t.Run(model.Name+"/"+cfg.name, func(t *testing.T) {
				diffRun(t, model, cfg.cfg, steps)
			})
		}
	}
}

// A context switch reloads segment registers; a batched kernel that
// kept translating with the old task's segments would charge the wrong
// stream. The switch itself runs scheduler code, so the twins run it
// identically and the comparison covers the whole sequence.
func TestAccessRunAcrossContextSwitch(t *testing.T) {
	kb, tb := bootTask(t, clock.PPC604At185(), Unoptimized())
	ks, ts := bootTask(t, clock.PPC604At185(), Unoptimized())
	tb2 := kb.Spawn(kb.LoadImage("other", 8))
	ts2 := ks.Spawn(ks.LoadImage("other", 8))

	r := Run{EA: UserDataBase, Count: 2000, Stride: 4, Class: cache.ClassUser, Stores: cache.AllStores}
	kb.AccessRun(tb, r)
	scalarRun(ks, ts, r)

	kb.Switch(tb2)
	ks.Switch(ts2)
	kb.AccessRun(tb2, r)
	scalarRun(ks, ts2, r)

	kb.Switch(tb)
	ks.Switch(ts)
	kb.AccessRun(tb, r)
	scalarRun(ks, ts, r)

	b, s := observeRun(kb), observeRun(ks)
	if !reflect.DeepEqual(b, s) {
		t.Fatalf("batched and scalar state diverge across context switches\nbatched %+v\nscalar  %+v", b, s)
	}
}

// Once a page is resident the whole batched pipeline — translation,
// hit replay, batch cache simulation — must run without allocating: it
// executes under the hot path proof and inside every harness inner
// loop.
func TestAccessRunZeroAllocsWhenResident(t *testing.T) {
	k, task := bootTask(t, clock.PPC604At185(), Unoptimized())
	r := Run{EA: UserDataBase, Count: 1024, Stride: 4, Class: cache.ClassUser, Stores: cache.AllStores}
	mix := Run{EA: UserDataBase, Count: 256, Stride: 32, Class: cache.ClassUser, Stores: userMix}
	k.AccessRun(task, r) // fault the pages in
	k.AccessRun(task, mix)
	if n := testing.AllocsPerRun(100, func() {
		k.AccessRun(task, r)
		k.AccessRun(task, mix)
	}); n != 0 {
		t.Fatalf("resident AccessRun allocates %.1f times per op, want 0", n)
	}
}

// FuzzAccessRunParity feeds arbitrary scripts of runs and invalidation
// events to the batched/scalar twins. Any reachable combination of
// stride, width, page crossing, flushes, and context switches in which
// the batched pipeline's counter stream deviates from scalar execution
// is a bug.
func FuzzAccessRunParity(f *testing.F) {
	f.Add([]byte{0, 10, 2, 1, 40, 1, 3, 0, 4})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 1, 255, 31, 0, 5})
	f.Add([]byte{4, 9, 9, 9, 3, 3, 3})
	f.Fuzz(func(t *testing.T, script []byte) {
		kb, tb := bootTask(t, clock.PPC604At185(), Unoptimized())
		ks, ts := bootTask(t, clock.PPC604At185(), Unoptimized())
		i := 0
		next := func() int {
			if i >= len(script) {
				return 0
			}
			v := int(script[i])
			i++
			return v
		}
		for steps := 0; i < len(script) && steps < 64; steps++ {
			switch next() % 6 {
			case 0, 1: // data run (the common case gets more weight)
				r := Run{
					EA:     UserDataBase + arch.EffectiveAddr(next()*64),
					Count:  next()*16 + 1,
					Stride: next()%128 + 1,
					Class:  cache.ClassUser,
					Stores: cache.Stores(next()),
				}
				kb.AccessRun(tb, r)
				scalarRun(ks, ts, r)
			case 2: // instruction run
				r := Run{
					EA:     UserTextBase + arch.EffectiveAddr(next()*32),
					Count:  next()%256 + 1,
					Stride: next()%64 + 1,
					Class:  cache.ClassUser,
					Instr:  true,
				}
				kb.AccessRun(tb, r)
				scalarRun(ks, ts, r)
			case 3:
				kb.M.MMU.InvalidateTLBs()
				ks.M.MMU.InvalidateTLBs()
			case 4:
				vpn := kb.M.MMU.VPNFor(UserDataBase + arch.EffectiveAddr(next()*4096))
				kb.M.MMU.InvalidateVPNAll(vpn)
				ks.M.MMU.InvalidateVPNAll(vpn)
			case 5:
				seg := int(UserDataBase >> 28)
				kb.M.MMU.SetSegment(seg, kb.M.MMU.Segment(seg))
				ks.M.MMU.SetSegment(seg, ks.M.MMU.Segment(seg))
			}
			b, s := observeRun(kb), observeRun(ks)
			if !reflect.DeepEqual(b, s) {
				t.Fatalf("step %d: batched and scalar state diverge\nbatched %+v\nscalar  %+v", steps, b, s)
			}
		}
	})
}

// TestSoftReloadCounts covers a 603 software reload and its retry. Two
// identically booted kernels run the same steps: one without an
// injector and one with an armed injector that never fires. After
// every step the two must agree on every hwmon counter and on the
// cycle count, so arming an injector that stays silent changes nothing
// on the reload path.
func TestSoftReloadCounts(t *testing.T) {
	boot := func(inj *faultinject.Injector) *Kernel {
		k := New(machine.NewWithOptions(clock.PPC603At180(), machine.Options{Injector: inj}), Optimized())
		k.Spawn(k.LoadImage("retry", 8))
		k.SysBrk(16)
		k.UserTouchPages(UserDataBase, 8)
		return k
	}
	sched := faultinject.DefaultSchedule(1)
	sched.RatePPM = 0
	inj := faultinject.New(sched)
	inj.Arm()
	plain, armed := boot(nil), boot(inj)
	same := func(step string) {
		t.Helper()
		if a, b := plain.M.Led.Now(), armed.M.Led.Now(); a != b {
			t.Fatalf("%s: %d cycles, %d with the armed injector", step, a, b)
		}
		if *plain.M.Mon != *armed.M.Mon {
			t.Fatalf("%s: counters differ with the armed injector:\nplain %+v\narmed %+v", step, *plain.M.Mon, *armed.M.Mon)
		}
	}
	same("boot")

	// A plain reload: the page is mapped, only its TLB entry is gone.
	// A foreign VSID's entry holds way 0 of the page's set, so the
	// reload fills way 1 and both entries stay resident.
	ea := UserDataBase + 3*arch.PageSize + 0x40
	foreign := arch.VPNOf(0x7777, ea)
	before := plain.M.Mon.Snapshot()
	for _, k := range []*Kernel{plain, armed} {
		k.M.MMU.InvalidateTLBs()
		k.M.MMU.TLB.Insert(foreign, 1, false, false)
		k.UserRef(ea, false)
	}
	same("plain reload")
	if d := plain.M.Mon.Delta(before); d.TLBMisses != 1 || d.SoftwareReloads != 1 || d.TLBHits != 1 {
		t.Fatalf("plain reload: %d misses, %d reloads, %d hits; want 1 of each", d.TLBMisses, d.SoftwareReloads, d.TLBHits)
	}
	mmu := plain.M.MMU
	_, held := mmu.TLB.Peek(mmu.VPNFor(ea))
	if _, kept := mmu.TLB.Peek(foreign); !held || !kept {
		t.Fatalf("plain reload: page held %v, foreign entry kept %v; want both", held, kept)
	}
	for _, k := range []*Kernel{plain, armed} {
		k.M.MMU.InvalidateVPNAll(foreign)
	}

	// A reload whose page fault reclaims memory: the reclaim flushes
	// translations before the retry.
	hold := func(k *Kernel) (pfns []arch.PFN) {
		for k.M.Mem.FreeFrames() > 0 {
			pfn, _ := k.M.Mem.AllocFrame()
			pfns = append(pfns, pfn)
		}
		return pfns
	}
	heldPlain, heldArmed := hold(plain), hold(armed)
	ea = UserDataBase + 8*arch.PageSize
	swaps := plain.M.Mon.SwapOuts
	for _, k := range []*Kernel{plain, armed} {
		k.UserRef(ea, false)
	}
	same("reload with reclaim")
	if plain.M.Mon.SwapOuts == swaps {
		t.Fatal("reload with reclaim: no swap-out; the fault must reclaim")
	}
	for _, pfn := range heldPlain {
		plain.M.Mem.FreeFrame(pfn)
	}
	for _, pfn := range heldArmed {
		armed.M.Mem.FreeFrame(pfn)
	}

	// A stream of reloads across many pages.
	for i := 0; i < 64; i++ {
		ea := UserDataBase + arch.EffectiveAddr(i*7%16)*arch.PageSize
		for _, k := range []*Kernel{plain, armed} {
			if i%8 == 0 {
				k.M.MMU.InvalidateTLBs()
			}
			k.UserRef(ea, i%3 == 0)
		}
		same("reload stream")
	}
	for _, k := range []*Kernel{plain, armed} {
		if err := k.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
	}
}
