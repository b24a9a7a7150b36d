package mmtrace

import (
	"testing"

	"mmutricks/internal/arch"
	"mmutricks/internal/clock"
	"mmutricks/internal/hwmon"
	"mmutricks/internal/telemetry"
)

// The record path runs on every traced TLB miss, fault, and flush; it
// must allocate nothing whether the tracer is enabled or disabled.

func TestEmitZeroAllocsEnabled(t *testing.T) {
	tr, _ := newTestTracer(1024)
	if n := testing.AllocsPerRun(200, func() {
		tr.TLBMiss(0x42, 0x1234_5000, 17)
	}); n != 0 {
		t.Fatalf("enabled TLBMiss allocates %.1f times per op, want 0", n)
	}
}

func TestEmitZeroAllocsDisabled(t *testing.T) {
	tr, _ := newTestTracer(1024)
	tr.Disable()
	if n := testing.AllocsPerRun(200, func() {
		tr.TLBMiss(0x42, 0x1234_5000, 17)
	}); n != 0 {
		t.Fatalf("disabled TLBMiss allocates %.1f times per op, want 0", n)
	}
}

func TestEmitZeroAllocsAfterOverflow(t *testing.T) {
	tr, _ := newTestTracer(8)
	for i := 0; i < 100; i++ {
		tr.CacheFill(0, 1, 0)
	}
	if n := testing.AllocsPerRun(200, func() {
		tr.CacheFill(0, 1, 0)
	}); n != 0 {
		t.Fatalf("post-overflow CacheFill allocates %.1f times per op, want 0", n)
	}
}

// The span calls run on every syscall, context switch, fault and idle
// poll; with events and phases on or off they must allocate nothing.
func TestSpanCallsZeroAllocs(t *testing.T) {
	var vs arch.VSID = 0x42
	calls := map[string]func(*Tracer){
		"Enter/Exit":      func(t *Tracer) { t.Exit(t.Enter(telemetry.PhaseFlush)) },
		"Syscall":         func(t *Tracer) { t.Exit(t.Syscall()) },
		"IdleWait":        func(t *Tracer) { t.Exit(t.IdleWait()) },
		"IdleScan":        func(t *Tracer) { t.Exit(t.IdleScan()) },
		"KthreadMMSwitch": func(t *Tracer) { t.Exit(t.KthreadMMSwitch()) },
		"CtxSwitch":       func(t *Tracer) { t.CtxSwitch(t.Enter(telemetry.PhaseCtxSwitch), &vs, 3) },
		"SwapOut":         func(t *Tracer) { t.SwapOut(t.Enter(telemetry.PhaseSwap), &vs, 0x1000) },
		"SwapIn":          func(t *Tracer) { t.SwapIn(t.Enter(telemetry.PhaseSwap), &vs, 0x1000) },
		"COWBreak":        func(t *Tracer) { t.COWBreak(t.Enter(telemetry.PhaseFault), &vs, 0x1000) },
		"SetTask":         func(t *Tracer) { t.SetTask(3, 4) },
	}
	for _, enabled := range []bool{false, true} {
		tr := NewTracer(clock.NewLedger(100), &hwmon.Counters{}, 1024)
		if enabled {
			tr.Enable()
			tr.Phases().Enable(telemetry.Options{SampleInterval: 1, SampleCapacity: 4})
		}
		for name, call := range calls {
			if n := testing.AllocsPerRun(200, func() { call(tr) }); n != 0 {
				t.Errorf("%s (enabled=%v) allocates %.1f times per op, want 0", name, enabled, n)
			}
		}
	}
}

func BenchmarkEmitEnabled(b *testing.B) {
	led := clock.NewLedger(100)
	tr := NewTracer(led, &hwmon.Counters{}, DefaultCapacity)
	tr.Enable()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.TLBMiss(0x42, 0x1234_5000, 17)
	}
}

func BenchmarkEmitDisabled(b *testing.B) {
	led := clock.NewLedger(100)
	tr := NewTracer(led, &hwmon.Counters{}, DefaultCapacity)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.TLBMiss(0x42, 0x1234_5000, 17)
	}
}
