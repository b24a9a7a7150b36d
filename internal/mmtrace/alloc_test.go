package mmtrace

import (
	"testing"

	"mmutricks/internal/clock"
	"mmutricks/internal/hwmon"
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
