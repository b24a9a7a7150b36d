package phys

import (
	"fmt"
	"testing"

	"mmutricks/internal/arch"
)

// benchPools are the free-pool sizes of the allocator benchmarks: about
// 1k frames, and the 7,648 free frames of the paper's 32 MB machine
// (the whole pool, where mm-churn's idle task keeps it).
var benchPools = []int{1024, 7648}

// clearedPool returns the default machine with all but free frames
// allocated and every free frame banked on the cleared list, in frame
// order, so the newest entry is the bottom of the free stack.
func clearedPool(b *testing.B, free int) *Memory {
	m := NewDefault()
	for m.FreeFrames() > free {
		m.AllocFrame()
	}
	if m.FreeFrames() != free {
		b.Fatalf("pool has %d free frames, want %d", m.FreeFrames(), free)
	}
	for pfn := arch.PFN(0); int(pfn) < m.Frames(); pfn++ {
		m.PushCleared(pfn)
	}
	return m
}

// BenchmarkPopClearedCandidate is the idle task's poll once the free
// pool is fully cleared: a miss every time.
func BenchmarkPopClearedCandidate(b *testing.B) {
	for _, free := range benchPools {
		b.Run(fmt.Sprintf("free=%d", free), func(b *testing.B) {
			m := clearedPool(b, free)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := m.PopClearedCandidate(); ok {
					b.Fatal("fully cleared pool offered a candidate")
				}
			}
		})
	}
}

// BenchmarkGetFreePageCleared is get_free_page()'s pre-cleared fast
// path followed by a FreeFrame of the page. Each hit takes the frame
// deepest in the free stack; when the cleared list runs dry the freed
// frames are banked again, untimed, in the same shape.
func BenchmarkGetFreePageCleared(b *testing.B) {
	for _, free := range benchPools {
		b.Run(fmt.Sprintf("free=%d", free), func(b *testing.B) {
			m := clearedPool(b, free)
			freed := make([]arch.PFN, 0, free)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if m.ClearedLen() == 0 {
					b.StopTimer()
					for j := len(freed) - 1; j >= 0; j-- {
						m.PushCleared(freed[j])
					}
					freed = freed[:0]
					b.StartTimer()
				}
				pfn, cleared, _ := m.GetFreePage()
				if !cleared {
					b.Fatal("cleared pool missed")
				}
				m.FreeFrame(pfn)
				freed = append(freed, pfn)
			}
		})
	}
}
