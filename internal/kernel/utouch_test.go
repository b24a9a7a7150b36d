package kernel

import (
	"reflect"
	"testing"

	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
	"mmutricks/internal/clock"
	"mmutricks/internal/faultinject"
	"mmutricks/internal/machine"
)

// UserTouch is one masked run per call. Its meaning is the scalar loop
// below: one access per cache line, three loads then one store in
// every four lines. These twin tests hold the run to that loop on
// every route MemAccessRun can take, comparing the full observable
// state (and, with the tracer on, the event ring) after every call.

// utouchScalar is UserTouch reference for reference through the scalar
// access path.
func utouchScalar(k *Kernel, ea arch.EffectiveAddr, nbytes int) {
	line := k.M.LineSize()
	for j := 0; j < (nbytes+line-1)/line; j++ {
		k.access(k.cur, ea+arch.EffectiveAddr(j*line), false, cache.ClassUser, j%4 == 3)
	}
}

// touchStep is one UserTouch call of a twin script.
type touchStep struct {
	ea     arch.EffectiveAddr
	nbytes int
}

// touchScript mixes every start phase, page crossings, partial groups,
// unaligned addresses, and re-touches of warm lines.
func touchScript(base arch.EffectiveAddr) []touchStep {
	return []touchStep{
		{base, arch.PageSize},
		{base, arch.PageSize},
		{base + 32, 3 * 32},
		{base + 0x1000 - 2*32, 7 * 32},
		{base + 6, 5 * 32},
		{base + 0x2000 + 100, 2*arch.PageSize + 200},
		{base, 1},
		{base + 0x3000, 8 * 1024},
		{base + 0x40, 512},
		{base, 6 * arch.PageSize},
	}
}

type touchRoute struct {
	name  string
	model clock.CPUModel
	cfg   Config
	opts  func() machine.Options
	// setup runs identically on both twins after boot and returns the
	// base address the script touches.
	setup func(k *Kernel) arch.EffectiveAddr
}

func bootTouchTwin(t *testing.T, r touchRoute) (*Kernel, arch.EffectiveAddr) {
	t.Helper()
	var opts machine.Options
	if r.opts != nil {
		opts = r.opts()
	}
	k := New(machine.NewWithOptions(r.model, opts), r.cfg)
	k.Switch(k.Spawn(k.LoadImage("test", 8)))
	base := UserDataBase
	if r.setup != nil {
		base = r.setup(k)
	}
	return k, base
}

func TestUserTouchMatchesScalarOnEveryRoute(t *testing.T) {
	cowCfg := Optimized()
	cowCfg.UseHTAB = true
	cowCfg.COWFork = true
	fbBAT := Optimized()
	fbBAT.FBBAT = true
	routes := []touchRoute{
		{name: "count", model: clock.PPC604At185(), cfg: Optimized()},
		{name: "count/603", model: clock.PPC603At180(), cfg: Unoptimized()},
		{name: "tracer", model: clock.PPC604At185(), cfg: Optimized(),
			setup: func(k *Kernel) arch.EffectiveAddr { k.M.Trc.Enable(); return UserDataBase }},
		{name: "cache lock", model: clock.PPC603At180(), cfg: Optimized(),
			setup: func(k *Kernel) arch.EffectiveAddr {
				// Clean resident lines, so the locked run's stores hit and
				// dirty them (locked misses allocate nothing). Faulting a
				// page in clears it through the cache, so fault the pages
				// in, evict them, and load them back.
				lines := 3 * arch.PageSize / 32
				k.UserRefRun(UserDataBase, lines, 32, false)
				k.UserRefRun(UserDataBase+0x10000, 4*lines, 32, false)
				k.UserRefRun(UserDataBase, lines, 32, false)
				k.M.SetCacheLock(true)
				return UserDataBase
			}},
		{name: "injector", model: clock.PPC604At185(), cfg: Optimized(),
			opts: func() machine.Options {
				s := faultinject.DefaultSchedule(7)
				s.RatePPM = 5000
				return machine.Options{Injector: faultinject.New(s)}
			},
			setup: func(k *Kernel) arch.EffectiveAddr { k.M.Inj.Arm(); return UserDataBase }},
		{name: "cow pending", model: clock.PPC603At133(), cfg: cowCfg,
			setup: func(k *Kernel) arch.EffectiveAddr {
				k.UserTouch(UserDataBase, 8*arch.PageSize)
				k.Fork()
				if len(k.cur.cowPages) == 0 {
					panic("fork left the parent no COW pages")
				}
				return UserDataBase
			}},
		{name: "inhibited/pte", model: clock.PPC604At185(), cfg: Optimized(),
			setup: func(k *Kernel) arch.EffectiveAddr { return k.IoremapFB() }},
		{name: "inhibited/bat", model: clock.PPC603At180(), cfg: fbBAT,
			setup: func(k *Kernel) arch.EffectiveAddr { return k.IoremapFB() }},
	}
	for _, r := range routes {
		t.Run(r.name, func(t *testing.T) {
			kb, base := bootTouchTwin(t, r)
			ks, _ := bootTouchTwin(t, r)
			for i, st := range touchScript(base) {
				kb.UserTouch(st.ea, st.nbytes)
				utouchScalar(ks, st.ea, st.nbytes)
				b, s := observeRun(kb), observeRun(ks)
				if !reflect.DeepEqual(b, s) {
					t.Fatalf("step %d (%v, %d bytes): run and scalar loop diverge\nrun    %+v\nscalar %+v", i, st.ea, st.nbytes, b, s)
				}
				if !reflect.DeepEqual(kb.M.Trc.Events(), ks.M.Trc.Events()) {
					t.Fatalf("step %d: trace rings diverge", i)
				}
			}
			if r.name == "tracer" && len(kb.M.Trc.Events()) == 0 {
				t.Fatal("the tracer route recorded no events")
			}
			if r.name == "injector" && kb.M.Mon.MachineChecks == 0 {
				t.Fatal("the injector route took no machine checks")
			}
		})
	}
}

// BenchmarkUserTouch is one kbuild compile pass's user data traffic:
// a full-page UserTouch of each page of a resident 160-page arena.
func BenchmarkUserTouch(b *testing.B) {
	k := New(machine.New(clock.PPC604At185()), Optimized())
	k.Switch(k.Spawn(k.LoadImage("bench", 8)))
	const pages = 160
	arena := k.SysMmap(pages)
	pass := func() {
		for p := 0; p < pages; p++ {
			k.UserTouch(arena+arch.EffectiveAddr(p*arch.PageSize), arch.PageSize)
		}
	}
	pass() // fault the arena in
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}
