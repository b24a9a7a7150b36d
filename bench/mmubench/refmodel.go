package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"syscall"
	"time"
)

// The host the benchmark was defined on shares its machine with other
// tenants, and its speed drifts: by 10-30% from one second to the next,
// and by up to 1.5x for minutes at a time. A median over one run cannot
// filter out drift that outlasts the run, so every timed pass measures
// the host's speed while it runs and divides it out.
//
// The yardstick is refModel, a small fixed model of the kind of work
// the simulator does: a two-way TLB in front of a two-level page table,
// a four-way LRU cache, and a RAM array that cache misses touch, driven
// by a fixed random address stream. It belongs to the benchmark, not to
// the simulator, so no change to the simulator moves it. A pass runs a
// slice of it before its first stretch of work, again whenever
// sliceEvery of work has built up, and after its last. Each stretch is
// scaled by refSliceSeconds over the mean time of the two slices around
// it: what the stretch would have taken had the host run at the speed
// refSliceSeconds stands for.

const (
	// sliceRefs is the references one slice makes, about 20 ms of work.
	sliceRefs = 60_000
	// refSliceSeconds is about what one slice takes on the reference
	// host, a 2-vCPU Intel Xeon VM (Go 1.24.0): its slices took 17-22 ms.
	// Normalized times are in these reference seconds.
	refSliceSeconds = 0.020
	// sliceEvery is the most work a pass runs between two slices. The
	// host's speed decorrelates over about a second; slices 0.1-0.2 s
	// apart still agree closely.
	sliceEvery = 100 * time.Millisecond
)

type refTLBEntry struct{ vpn, pfn uint32 } // vpn+1, so 0 is invalid

type refLine struct{ key, lru uint32 }

type refModel struct {
	ram    []byte
	pgd    [1024][]uint32
	tlb    [64][2]refTLBEntry
	lines  [256][4]refLine
	seq    uint32
	frames uint32
	stream []byte // little-endian uint32 addresses
	pos    int
}

// newRefModel maps the model's RAM and address stream outside the Go
// heap: on it they would raise the garbage collector's heap target, and
// so change how often it runs during the simulator passes that share
// the process, and their peak memory.
func newRefModel() (*refModel, error) {
	ram, err := mapAnon(32 << 20)
	if err != nil {
		return nil, err
	}
	stream, err := mapAnon(4 << 20)
	if err != nil {
		return nil, err
	}
	m := &refModel{ram: ram, stream: stream}
	for i := range m.ram {
		m.ram[i] = byte(i)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	for i := 0; i < len(m.stream); i += 4 {
		binary.LittleEndian.PutUint32(m.stream[i:], rng.Uint32())
	}
	m.slice() // fill the page table and the caches before any slice is timed
	return m, nil
}

func mapAnon(n int) ([]byte, error) {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reference model: mmap %d bytes: %w", n, err)
	}
	return b, nil
}

// slice runs sliceRefs references and returns their host time in
// seconds.
func (m *refModel) slice() float64 {
	t0 := time.Now()
	for i := 0; i < sliceRefs; i++ {
		r := binary.LittleEndian.Uint32(m.stream[m.pos:])
		m.pos = (m.pos + 4) % len(m.stream)
		ea := (r >> 4) & (256<<10 - 1) // three in four references: a hot 256 KB
		if r&3 == 0 {
			ea = (r >> 4) & (16<<20 - 1) // the rest: scattered over 16 MB
		}
		n := 1
		if r&0x30 == 0 {
			n = 32 // one in four: a run of 32 lines
		}
		m.ref(ea, n)
	}
	return time.Since(t0).Seconds()
}

func (m *refModel) ref(ea uint32, n int) {
	vpn := ea >> 12
	set := &m.tlb[vpn&63]
	var pfn uint32
	switch vpn + 1 {
	case set[0].vpn:
		pfn = set[0].pfn
	case set[1].vpn:
		pfn = set[1].pfn
		set[0], set[1] = set[1], set[0]
	default:
		pfn = m.walk(vpn)
		set[1] = set[0]
		set[0] = refTLBEntry{vpn + 1, pfn}
	}
	pa := pfn<<12 | ea&4095
	for i := 0; i < n; i++ {
		la := (pa >> 5) + uint32(i)
		q := &m.lines[la&255]
		m.seq++
		want := la | 1<<31
		hit := -1
		for w := range q {
			if q[w].key == want {
				hit = w
			}
		}
		if hit >= 0 {
			q[hit].lru = m.seq
			continue
		}
		victim := 0
		for w := 1; w < len(q); w++ {
			if q[w].lru < q[victim].lru {
				victim = w
			}
		}
		q[victim] = refLine{want, m.seq}
		off := (la << 5) % uint32(len(m.ram))
		m.ram[off] += m.ram[(off+4096)%uint32(len(m.ram))]
	}
}

// walk returns vpn's frame, allocating one on first use.
func (m *refModel) walk(vpn uint32) uint32 {
	pte := m.pgd[vpn>>10]
	if pte == nil {
		pte = make([]uint32, 1024)
		m.pgd[vpn>>10] = pte
	}
	if pte[vpn&1023] == 0 {
		m.frames++
		pte[vpn&1023] = m.frames%8192 + 1
	}
	return pte[vpn&1023]
}

// speedMeter normalizes one pass's host time with slices of the
// reference model run through the pass. A nil meter runs no slices and
// leaves times as measured.
type speedMeter struct {
	slice     func() float64 // runs a slice, returning its seconds
	prev      float64        // seconds of the last slice
	pending   time.Duration  // work since that slice
	raw, norm float64        // seconds of work: as measured, and normalized
}

// newSpeedMeter starts a pass with a slice; slice is a refModel's.
func newSpeedMeter(slice func() float64) *speedMeter {
	return &speedMeter{slice: slice, prev: slice()}
}

// add records d of the pass's work, and runs a slice once sliceEvery of
// work has built up since the last one.
func (s *speedMeter) add(d time.Duration) {
	if s == nil {
		return
	}
	s.pending += d
	if s.pending >= sliceEvery {
		s.flush()
	}
}

func (s *speedMeter) flush() {
	if s.pending == 0 {
		return
	}
	cur := s.slice()
	s.raw += s.pending.Seconds()
	s.norm += s.pending.Seconds() * refSliceSeconds / ((s.prev + cur) / 2)
	s.prev, s.pending = cur, 0
}

// factor ends the pass with a slice and returns its normalized time
// over its host time: reference seconds per host second.
func (s *speedMeter) factor() float64 {
	if s == nil {
		return 1
	}
	s.flush()
	return ratio(s.norm, s.raw)
}
