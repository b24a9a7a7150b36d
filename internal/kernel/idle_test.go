package kernel

import (
	"testing"

	"mmutricks/internal/clock"
	"mmutricks/internal/machine"
)

// BenchmarkRunIdleFor is one 30,000-cycle idle wait on the 604 with
// every optimization on, once the idle task has cleared the whole free
// pool — the state the kernel compile settles in, where each poll
// finds no page left to clear.
func BenchmarkRunIdleFor(b *testing.B) {
	k := New(machine.New(clock.PPC604At185()), Optimized())
	for {
		if _, ok := k.M.Mem.PopClearedCandidate(); !ok {
			break
		}
		k.RunIdleFor(1_000_000)
	}
	if k.M.Mem.ClearedLen() != k.M.Mem.FreeFrames() {
		b.Fatalf("%d of %d free frames cleared", k.M.Mem.ClearedLen(), k.M.Mem.FreeFrames())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := k.RunIdleFor(30_000); st.Cleared != 0 {
			b.Fatal("idle task cleared a page in a fully cleared pool")
		}
	}
}
