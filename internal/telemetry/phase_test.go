package telemetry

import (
	"bytes"
	"compress/gzip"
	"io"
	"strings"
	"testing"

	"mmutricks/internal/clock"
	"mmutricks/internal/hwmon"
)

func newEnabled(t *testing.T, opt Options) (*Phases, *clock.Ledger, *hwmon.Counters) {
	t.Helper()
	led := clock.NewLedger(185)
	mon := &hwmon.Counters{}
	p := New(led, mon)
	p.Enable(opt)
	return p, led, mon
}

// span enters and at once leaves ph: one entry, no cycles.
func span(p *Phases, ph Phase) {
	p.Enter(ph)
	p.Exit()
}

func TestPhaseNamesDistinct(t *testing.T) {
	if len(AllPhases) != int(NumPhases) {
		t.Fatalf("AllPhases lists %d phases, NumPhases is %d", len(AllPhases), NumPhases)
	}
	seen := map[string]bool{}
	for i, ph := range AllPhases {
		if Phase(i) != ph {
			t.Errorf("AllPhases[%d] = %v, want the phase with value %d", i, ph, i)
		}
		name := ph.String()
		if name == "" || strings.HasPrefix(name, "phase(") {
			t.Errorf("phase %d has no name", i)
		}
		if seen[name] {
			t.Errorf("duplicate phase name %q", name)
		}
		seen[name] = true
	}
}

func TestSpanAttributionAndConservation(t *testing.T) {
	p, led, _ := newEnabled(t, Options{})
	led.Charge(10)
	p.Enter(PhaseFlush)
	led.Charge(5)
	p.Enter(PhaseFault)
	led.Charge(3)
	p.Exit()
	led.Charge(2)
	p.Exit()
	led.Charge(4)

	if err := p.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if got := p.Cycles(PhaseUser); got != 14 {
		t.Errorf("user cycles = %d, want 14", got)
	}
	if got := p.Cycles(PhaseFlush); got != 7 {
		t.Errorf("flush cycles = %d, want 7", got)
	}
	if got := p.Cycles(PhaseFault); got != 3 {
		t.Errorf("fault cycles = %d, want 3", got)
	}
	if p.Enters(PhaseFlush) != 1 || p.Enters(PhaseFault) != 1 {
		t.Errorf("enters = flush %d fault %d, want 1/1", p.Enters(PhaseFlush), p.Enters(PhaseFault))
	}
	if p.Total() != 24 {
		t.Errorf("total = %d, want 24", p.Total())
	}
}

func TestAttributeTransfersExactly(t *testing.T) {
	p, led, _ := newEnabled(t, Options{})
	led.Charge(10)
	led.Charge(7)
	p.Attribute(PhaseFetch, 7)
	if err := p.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if got := p.Cycles(PhaseUser); got != 10 {
		t.Errorf("user cycles = %d, want 10", got)
	}
	if got := p.Cycles(PhaseFetch); got != 7 {
		t.Errorf("fetch cycles = %d, want 7", got)
	}
	if p.Enters(PhaseFetch) != 1 {
		t.Errorf("fetch enters = %d, want 1", p.Enters(PhaseFetch))
	}
}

func TestAttributeUnderflowPanics(t *testing.T) {
	p, led, _ := newEnabled(t, Options{})
	led.Charge(3)
	defer func() {
		if recover() == nil {
			t.Fatal("over-transfer did not panic")
		}
	}()
	p.Attribute(PhaseFetch, 4)
}

func TestSkewTripsConservation(t *testing.T) {
	for _, ph := range AllPhases {
		for _, d := range []int64{-1, 1} {
			p, led, _ := newEnabled(t, Options{})
			led.Charge(100)
			span(p, ph) // make the phase plausible
			p.Skew(ph, d)
			if err := p.CheckConservation(); err == nil {
				t.Errorf("skew %+d on %v not detected", d, ph)
			}
		}
	}
}

func TestDisabledIsInert(t *testing.T) {
	led := clock.NewLedger(185)
	p := New(led, &hwmon.Counters{})
	led.Charge(10)
	span(p, PhaseFlush)
	p.Attribute(PhaseFetch, 5)
	p.SetTask(3, 4)
	if p.Total() != 0 {
		t.Errorf("disabled ledger attributed %d cycles", p.Total())
	}
	if err := p.CheckConservation(); err != nil {
		t.Errorf("disabled conservation: %v", err)
	}
}

func TestEnableMidRunUsesBase(t *testing.T) {
	led := clock.NewLedger(185)
	p := New(led, &hwmon.Counters{})
	led.Charge(1000)
	p.Enable(Options{})
	led.Charge(25)
	if err := p.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if p.Total() != 25 {
		t.Errorf("total = %d, want 25", p.Total())
	}
}

func TestSamplerBoundaries(t *testing.T) {
	p, led, mon := newEnabled(t, Options{SampleInterval: 100, SampleCapacity: 8})
	// Cross the first boundary with an attribution at cycle 120.
	led.Charge(120)
	mon.Syscalls = 1
	p.Sync()
	// Cross two boundaries (200, 300) before the next attribution: one
	// sample, covering both.
	led.Charge(190)
	mon.Syscalls = 2
	p.Sync()
	// No boundary crossed: no sample.
	led.Charge(10)
	p.Sync()

	s := p.Samples()
	if len(s) != 2 {
		t.Fatalf("got %d samples, want 2", len(s))
	}
	if s[0].Boundary != 100 || s[0].Cycle != 120 {
		t.Errorf("sample 0 boundary/cycle = %d/%d, want 100/120", s[0].Boundary, s[0].Cycle)
	}
	if s[0].Counters.Syscalls != 1 {
		t.Errorf("sample 0 syscalls = %d, want 1", s[0].Counters.Syscalls)
	}
	if s[1].Boundary != 200 || s[1].Cycle != 310 {
		t.Errorf("sample 1 boundary/cycle = %d/%d, want 200/310", s[1].Boundary, s[1].Cycle)
	}
	if s[1].Counters.Syscalls != 2 {
		t.Errorf("sample 1 syscalls = %d, want 2", s[1].Counters.Syscalls)
	}
	if s[1].Phases[PhaseUser] != 310 {
		t.Errorf("sample 1 user cycles = %d, want 310", s[1].Phases[PhaseUser])
	}
	if p.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0", p.Dropped())
	}
	// The next boundary after 310 is 400.
	led.Charge(85)
	p.Sync() // 395: no crossing
	led.Charge(10)
	p.Sync() // 405: sample
	if s := p.Samples(); len(s) != 3 || s[2].Boundary != 400 {
		t.Fatalf("after 405: %d samples (last boundary %d), want 3 with boundary 400", len(s), s[len(s)-1].Boundary)
	}
}

func TestSampleRingKeepsFirstAndCountsDrops(t *testing.T) {
	p, led, _ := newEnabled(t, Options{SampleInterval: 10, SampleCapacity: 2})
	for i := 0; i < 5; i++ {
		led.Charge(10)
		p.Sync()
	}
	s := p.Samples()
	if len(s) != 2 {
		t.Fatalf("got %d samples, want capacity 2", len(s))
	}
	if s[0].Boundary != 10 || s[1].Boundary != 20 {
		t.Errorf("ring kept boundaries %d,%d — must keep the FIRST samples", s[0].Boundary, s[1].Boundary)
	}
	if p.Dropped() != 3 {
		t.Errorf("dropped = %d, want 3", p.Dropped())
	}
}

func TestSetTaskAttribution(t *testing.T) {
	p, led, _ := newEnabled(t, Options{})
	led.Charge(10) // task 0
	p.SetTask(7, 3)
	led.Charge(30)
	p.SetTask(8, 3)
	led.Charge(2)
	p.Sync()

	tasks := p.TaskAttribution()
	if len(tasks) != 3 {
		t.Fatalf("task rows = %d, want 3", len(tasks))
	}
	if tasks[0].ID != 0 || tasks[0].Cycles != 10 {
		t.Errorf("task 0 row = %+v", tasks[0])
	}
	if tasks[1].ID != 7 || tasks[1].Cycles != 30 {
		t.Errorf("task 7 row = %+v", tasks[1])
	}
	if tasks[2].ID != 8 || tasks[2].Cycles != 2 {
		t.Errorf("task 8 row = %+v", tasks[2])
	}
	mms := p.MMAttribution()
	if len(mms) != 2 || mms[1].ID != 3 || mms[1].Cycles != 32 {
		t.Fatalf("mm rows = %+v, want mm 3 with 32 cycles", mms)
	}
}

func TestReconcileIdentities(t *testing.T) {
	p, led, _ := newEnabled(t, Options{})
	var c hwmon.Counters
	led.Charge(1)
	span(p, PhaseSyscall)
	c.Syscalls++
	span(p, PhaseFlush)
	c.FlushPage++
	span(p, PhaseFlush)
	c.FlushContext++
	span(p, PhaseCtxSwitch)
	c.CtxSwitches++
	span(p, PhaseCtxSwitch)
	c.KthreadMMSwitches++
	span(p, PhaseIdle)
	c.IdleWaits++
	span(p, PhaseIdleReclaim)
	c.IdleScans++
	span(p, PhasePreZero)
	c.IdlePagesCleared++
	span(p, PhaseSwap)
	c.SwapOuts++
	span(p, PhaseMCRepair)
	c.MachineChecks++
	led.Charge(3)
	p.Attribute(PhaseTLBMiss, 2)
	c.HardwareWalks++

	rows := Reconcile(p, &c)
	if len(rows) != 9 {
		t.Fatalf("got %d rows, want 9", len(rows))
	}
	for _, r := range rows {
		if !r.OK {
			t.Errorf("row %s: enters %d != counter %d", r.Name, r.Enters, r.Counter)
		}
	}
	// Drift must be visible.
	c.Syscalls++
	bad := 0
	for _, r := range Reconcile(p, &c) {
		if !r.OK {
			bad++
		}
	}
	if bad != 1 {
		t.Fatalf("drifted counter flagged %d rows, want 1", bad)
	}
}

func TestPercentiles(t *testing.T) {
	// 100 values: 50 zeros, 49 in bucket 3 (4-7), 1 in bucket 10
	// (512-1023).
	buckets := make([]uint64, 33)
	buckets[0] = 50
	buckets[3] = 49
	buckets[10] = 1
	got := Percentiles(buckets, 0.50, 0.99, 0.999)
	want := []uint64{0, 7, 1023}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("p%v = %d, want %d", []float64{50, 99, 99.9}[i], got[i], want[i])
		}
	}
	if got := Percentiles(nil, 0.5); got[0] != 0 {
		t.Errorf("empty histogram p50 = %d, want 0", got[0])
	}
	if u := Log2BucketUpper(70); u != ^uint64(0) {
		t.Errorf("bucket 70 upper = %d", u)
	}
}

func TestWriteProfileIsValidGzipWithPhaseNames(t *testing.T) {
	p, led, _ := newEnabled(t, Options{})
	led.Charge(100)
	span(p, PhaseFlush)
	p.Sync()
	cycles := make([]uint64, NumPhases)
	for _, ph := range AllPhases {
		cycles[ph] = uint64(p.Cycles(ph))
	}
	render := func() []byte {
		var buf bytes.Buffer
		if err := WriteProfileData(&buf, PhaseNames(), cycles, led.MHz()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	data := render()
	gz, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("not gzip: %v", err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cycles", "user", "instr-fetch", "flush", "mc-repair"} {
		if !bytes.Contains(raw, []byte(name)) {
			t.Errorf("profile string table missing %q", name)
		}
	}
	// Determinism: a second render is byte-identical.
	if !bytes.Equal(data, render()) {
		t.Error("profile bytes differ between renders")
	}
}
