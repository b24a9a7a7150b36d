package cache

import (
	"testing"

	"mmutricks/internal/arch"
)

// FuzzAccessSequence drives a cache with an arbitrary access stream and
// checks structural invariants.
func FuzzAccessSequence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 255, 128})
	f.Fuzz(func(t *testing.T, stream []byte) {
		c := New("fz", 4096, 4, 32) // 128 lines
		dirty := 0
		for i := 0; i+4 < len(stream); i += 5 {
			pa := uint32(stream[i])<<16 | uint32(stream[i+1])<<8 | uint32(stream[i+2])
			class := Class(stream[i+3]) % 7
			write := stream[i+4]&1 == 1
			c.Access(arch.PhysAddr(pa), class, write)
			if write {
				dirty++
			}
		}
		total := 0
		for _, n := range c.Residency() {
			total += n
		}
		if total > 128 {
			t.Fatalf("residency %d exceeds capacity", total)
		}
		if c.DirtyLines() > total {
			t.Fatal("more dirty lines than resident lines")
		}
		s := c.Stats()
		if s.TotalMisses() > s.TotalAccesses() {
			t.Fatal("more misses than accesses")
		}
	})
}
