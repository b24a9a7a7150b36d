package ppc

import (
	"testing"

	"mmutricks/internal/arch"
	"mmutricks/internal/cache"
	"mmutricks/internal/clock"
	"mmutricks/internal/hwmon"
	"mmutricks/internal/mmtrace"
)

// The TLB-hit translation path runs once per simulated memory
// reference; keeping it allocation-free is what makes the harness
// parallelism pay.

func TestTLBLookupZeroAllocs(t *testing.T) {
	tlb := NewTLB(128, 2)
	vpn := arch.VPNOf(0x42, 0x1234_5000)
	tlb.Insert(vpn, 0x77, false, false)
	if n := testing.AllocsPerRun(100, func() {
		if _, _, ok := tlb.Lookup(vpn); !ok {
			t.Fatal("lookup missed an inserted entry")
		}
	}); n != 0 {
		t.Fatalf("TLB.Lookup allocates %.1f times per op, want 0", n)
	}
}

// nopBus satisfies Bus without touching memory, so Translate's own
// allocation behaviour is isolated.
type nopBus struct{}

//mmutricks:noalloc
func (nopBus) MemAccess(arch.PhysAddr, cache.Class, bool, bool) {}

func TestTranslateTLBHitZeroAllocs(t *testing.T) {
	m, _ := tracedMMU(clock.PPC604At185(), false)
	ea := arch.EffectiveAddr(0x1034_5678)
	vpn := m.VPNFor(ea)
	m.TLBFor(false).Insert(vpn, 0x99, false, false)
	if n := testing.AllocsPerRun(100, func() {
		if r := m.Translate(ea, false); r.Fault != FaultNone {
			t.Fatalf("unexpected fault %v", r.Fault)
		}
	}); n != 0 {
		t.Fatalf("Translate (TLB hit) allocates %.1f times per op, want 0", n)
	}
}

// tracedMMU builds an MMU with its tracer in the given state.
func tracedMMU(model clock.CPUModel, enabled bool) (*MMU, *mmtrace.Tracer) {
	led := clock.NewLedger(model.MHz)
	tr := mmtrace.NewTracer(led, &hwmon.Counters{}, 1024)
	if enabled {
		tr.Enable()
	}
	htab := NewHTAB(arch.DefaultHTABGroups, 0x200000)
	return NewMMU(model, htab, led, nopBus{}, tr), tr
}

// The record path must stay allocation-free through a full Translate
// on the miss path (where the event calls record), enabled or not.
func TestTranslateTracedZeroAllocs(t *testing.T) {
	for _, enabled := range []bool{false, true} {
		m, _ := tracedMMU(clock.PPC603At133(), enabled)
		ea := arch.EffectiveAddr(0x1034_5678)
		vpn := m.VPNFor(ea)
		m.TLBFor(false).Insert(vpn, 0x99, false, false)
		missEA := arch.EffectiveAddr(0x2042_0000)
		if n := testing.AllocsPerRun(100, func() {
			m.Translate(ea, false)     // hit path
			m.Translate(missEA, false) // miss path: emits on the 603
		}); n != 0 {
			t.Fatalf("traced Translate (enabled=%v) allocates %.1f times per op, want 0", enabled, n)
		}
	}
}

// Tracing is observation only: an enabled tracer must leave Translate
// charging exactly the same cycles and counters as a disabled one (the
// default) — the event calls bump their counters either way, and
// recording touches neither the ledger nor the counter file.
func TestDisabledTracerCostNeutral(t *testing.T) {
	run := func(m *MMU) (clock.Cycles, hwmon.Counters) {
		for i := 0; i < 64; i++ {
			ea := arch.EffectiveAddr(0x1000_0000 + i*arch.PageSize)
			vpn := m.VPNFor(ea)
			m.TLBFor(false).Insert(vpn, arch.PFN(0x100+i), false, false)
			m.Translate(ea, false)                  // hit
			m.Translate(ea+arch.PageSize*97, false) // miss
		}
		return m.led.Now(), *m.mon
	}
	for _, model := range []clock.CPUModel{clock.PPC603At133(), clock.PPC604At185()} {
		disabled, _ := tracedMMU(model, false)
		enabled, tr := tracedMMU(model, true)
		offCycles, offMon := run(disabled)
		onCycles, onMon := run(enabled)
		if tr.Emitted() == 0 {
			t.Fatalf("%s: enabled tracer recorded nothing", model.Name)
		}
		if offMon.TLBMisses == 0 {
			t.Fatalf("%s: disabled tracer's calls bumped no counters", model.Name)
		}
		if offCycles != onCycles {
			t.Errorf("%s: enabling the tracer changed simulated cycles: %d vs %d",
				model.Name, offCycles, onCycles)
		}
		if offMon != onMon {
			t.Errorf("%s: enabling the tracer changed counters:\n%v\nvs\n%v",
				model.Name, offMon.String(), onMon.String())
		}
	}
}

func BenchmarkTranslateTLBHit(b *testing.B) {
	bench := func(b *testing.B, m *MMU) {
		ea := arch.EffectiveAddr(0x1034_5678)
		vpn := m.VPNFor(ea)
		m.TLBFor(false).Insert(vpn, 0x99, false, false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Translate(ea, false)
		}
	}
	model := clock.PPC604At185()
	b.Run("tracer-disabled", func(b *testing.B) {
		m, _ := tracedMMU(model, false)
		bench(b, m)
	})
	b.Run("tracer-enabled", func(b *testing.B) {
		m, _ := tracedMMU(model, true)
		bench(b, m)
	})
}
