package mmtrace

import (
	"testing"

	"mmutricks/internal/arch"
	"mmutricks/internal/clock"
	"mmutricks/internal/hwmon"
)

func newTestTracer(cap int) (*Tracer, *clock.Ledger) {
	led := clock.NewLedger(100)
	tr := NewTracer(led, &hwmon.Counters{}, cap)
	tr.Enable()
	return tr, led
}

func TestKindNamesRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < NumKinds; k++ {
		name := k.String()
		if name == "" || name == "kind(?)" {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[name] {
			t.Fatalf("duplicate kind name %q", name)
		}
		seen[name] = true
		got, ok := KindByName(name)
		if !ok || got != k {
			t.Fatalf("KindByName(%q) = %v,%v, want %v,true", name, got, ok, k)
		}
	}
	if _, ok := KindByName("no-such-kind"); ok {
		t.Fatal("KindByName accepted an unknown name")
	}
}

func TestEmitRecordsEventAndHist(t *testing.T) {
	tr, led := newTestTracer(8)
	led.Charge(100)
	tr.SetTask(7, 0)
	tr.TLBMiss(0x42, 0x1000_2000, 5)

	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	e := evs[0]
	if e.Kind != KindTLBMiss || e.Task != 7 || e.VSID != 0x42 ||
		e.EA != 0x1000_2000 || e.Cost != 5 || e.Time != 100 {
		t.Fatalf("unexpected event %+v", e)
	}
	h := tr.Hist(KindTLBMiss)
	if h.Count != 1 || h.CostTotal != 5 {
		t.Fatalf("hist = %+v, want Count 1 CostTotal 5", h)
	}
	// cost 5 lands in bucket Len64(5) = 3, i.e. range 4-7.
	if h.Buckets[3] != 1 {
		t.Fatalf("bucket for cost 5 = %v, want Buckets[3]=1", h.Buckets)
	}
}

func TestDisabledCallCountsButRecordsNothing(t *testing.T) {
	tr, _ := newTestTracer(8)
	tr.Disable()
	tr.TLBMiss(1, 2, 3)
	if tr.Emitted() != 0 || tr.Hist(KindTLBMiss).Count != 0 {
		t.Fatal("disabled tracer recorded an event")
	}
	if tr.Counters().TLBMisses != 1 {
		t.Fatalf("disabled TLBMiss left TLBMisses at %d, want 1", tr.Counters().TLBMisses)
	}
}

func TestRingOverflowKeepsNewestAndFullHists(t *testing.T) {
	tr, _ := newTestTracer(4)
	for i := 0; i < 10; i++ {
		tr.MinorFault(0, arch.EffectiveAddr(i), clock.Cycles(i))
	}
	if tr.Emitted() != 10 || tr.Dropped() != 6 {
		t.Fatalf("Emitted=%d Dropped=%d, want 10/6", tr.Emitted(), tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if want := arch.EffectiveAddr(6 + i); e.EA != want {
			t.Fatalf("event %d EA=%#x, want %#x (oldest-first, newest kept)", i, e.EA, want)
		}
	}
	// Histograms cover all 10 events despite the overwrites.
	if h := tr.Hist(KindMinorFault); h.Count != 10 {
		t.Fatalf("hist Count=%d, want 10 (overflow must not lose aggregates)", h.Count)
	}
}

func TestBucketing(t *testing.T) {
	cases := []struct {
		cost   clock.Cycles
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1 << 31, 32}, {^clock.Cycles(0), 32},
	}
	for _, c := range cases {
		if got := bucketOf(c.cost); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.cost, got, c.bucket)
		}
	}
	if got := BucketLabel(0); got != "0" {
		t.Errorf("BucketLabel(0) = %q", got)
	}
	if got := BucketLabel(1); got != "1" {
		t.Errorf("BucketLabel(1) = %q", got)
	}
	if got := BucketLabel(3); got != "4-7" {
		t.Errorf("BucketLabel(3) = %q, want 4-7", got)
	}
}

func TestTaskAttribution(t *testing.T) {
	tr, _ := newTestTracer(16)
	tr.SetTask(3, 0)
	tr.TLBMiss(0, 0, 10)
	tr.TLBMiss(0, 0, 20)
	tr.SetTask(1, 0)
	tr.MinorFault(0, 0, 5)
	stats := tr.TaskStats()
	if len(stats) != 2 {
		t.Fatalf("got %d task rows, want 2", len(stats))
	}
	if stats[0].PID != 1 || stats[0].Events != 1 || stats[0].CostTotal != 5 {
		t.Fatalf("row 0 = %+v", stats[0])
	}
	if stats[1].PID != 3 || stats[1].Events != 2 || stats[1].CostTotal != 30 {
		t.Fatalf("row 1 = %+v", stats[1])
	}
}

func TestResetClearsEverything(t *testing.T) {
	tr, _ := newTestTracer(4)
	tr.SetTask(9, 0)
	tr.FlushPage(1, 2, 3)
	tr.Reset()
	if tr.Emitted() != 0 || len(tr.Events()) != 0 || len(tr.TaskStats()) != 0 {
		t.Fatal("Reset left data behind")
	}
	if h := tr.Hist(KindFlushPage); h.Count != 0 {
		t.Fatal("Reset left histogram data behind")
	}
	if !tr.Enabled() {
		t.Fatal("Reset must keep the enabled flag")
	}
}

func TestReconcile(t *testing.T) {
	tr, _ := newTestTracer(64)
	tr.TLBMiss(0, 0, 1)
	tr.TLBMiss(0, 0, 1)
	tr.HTABHitPrimary(0, 0, 1)
	tr.HTABHitSecondary(0, 0, 1)
	tr.HTABInsertFree(0, 1)
	tr.IdleReclaim(1, 3)
	tr.OnDemandScan(0, 1, 2)
	tr.HashMissRaised(0, 0, 1)
	tr.HashMissHandled(0, 0, 1)

	c := *tr.Counters()
	if c.TLBMisses != 2 || c.HTABHits != 2 || c.ZombiesReclaimed != 5 {
		t.Fatalf("event calls left counters %+v", c)
	}

	rows := Reconcile(tr.Hists(), &c)
	if len(rows) == 0 {
		t.Fatal("Reconcile returned no rows")
	}
	for _, r := range rows {
		if !r.OK {
			t.Errorf("row %q: trace=%d counter=%d, want match", r.Name, r.TraceTotal, r.Counter)
		}
	}

	// Break one counter and confirm the mismatch is flagged.
	c.TLBMisses = 99
	rows = Reconcile(tr.Hists(), &c)
	found := false
	for _, r := range rows {
		if r.Name == "tlb-miss" {
			found = true
			if r.OK {
				t.Error("tlb-miss mismatch not flagged")
			}
		}
	}
	if !found {
		t.Fatal("no tlb-miss reconciliation row")
	}
}
