package tracerec

import (
	"context"
	"sort"
	"testing"
)

// TestSampledCountersMatchRing checks that a counter file sampled at
// any instant agrees with the event ring at that instant: the typed
// event call bumps a counter at its event's timestamp, so for every
// sample s and every counter one event kind moves by one,
//
//	events of the kind with Time < s.Cycle  <=  counter  <=  events with Time <= s.Cycle.
//
// The sums (HTABHits, HTABInserts, ZombiesReclaimed) follow from their
// addends. HashMissFaults is left out: it moves with the 604's raised
// htab-miss, not with the handler's hashmiss-fault event.
func TestSampledCountersMatchRing(t *testing.T) {
	counterKind := map[string]string{
		"TLBMisses":        "tlb-miss",
		"HTABPrimaryHits":  "htab-hit-primary",
		"HTABMisses":       "htab-miss",
		"SoftwareReloads":  "soft-reload",
		"HTABFreeSlot":     "htab-insert-free",
		"HTABEvictsValid":  "htab-evict-live",
		"HTABEvictsZombie": "htab-evict-zombie",
		"OnDemandScans":    "ondemand-scan",
		"MinorFaults":      "minor-fault",
		"MajorFaults":      "major-fault",
		"FlushPage":        "flush-page",
		"FlushRange":       "flush-range",
		"FlushContext":     "flush-context",
		"CtxSwitches":      "ctx-switch",
		"IdlePagesCleared": "page-zero",
		"SwapOuts":         "swap-out",
		"SwapIns":          "swap-in",
		"MachineChecks":    "machine-check",
		"MCRepairsTLB":     "mc-repair-tlb",
		"MCRepairsHTAB":    "mc-repair-htab",
		"MCRepairsBAT":     "mc-repair-bat",
		"MCRepairsCache":   "mc-repair-cache",
		"MCEscalations":    "mc-escalate",
		"MCSpurious":       "mc-spurious",
	}
	for _, cpu := range []string{"604/185", "603/133"} {
		rec, err := Record(context.Background(), RecordOptions{
			Workload: "kbuild", CPU: cpu, Config: "optimized", Iters: 20,
			Capacity: 1 << 18, Telemetry: true, SampleInterval: 1 << 14, SampleCapacity: 4096,
		})
		if err != nil {
			t.Fatal(err)
		}
		sec := rec.Sections[0]
		td := sec.Telemetry
		if sec.Dropped != 0 || td.Dropped != 0 {
			t.Fatalf("%s: the rings dropped %d events and %d samples; the check needs them all", cpu, sec.Dropped, td.Dropped)
		}
		if len(td.Samples) < 100 {
			t.Fatalf("%s: only %d samples", cpu, len(td.Samples))
		}
		times := map[string][]uint64{}
		for _, e := range sec.Events {
			times[e.Kind] = append(times[e.Kind], e.Time)
		}
		for name, kind := range counterKind {
			idx := counterIndex(td.CounterNames, name)
			if idx < 0 {
				t.Fatalf("no counter %s in the recording", name)
			}
			ts := times[kind]
			for _, s := range td.Samples {
				lo := sort.Search(len(ts), func(i int) bool { return ts[i] >= s.Cycle })
				hi := sort.Search(len(ts), func(i int) bool { return ts[i] > s.Cycle })
				if c := s.Counters[idx]; c < uint64(lo) || c > uint64(hi) {
					t.Errorf("%s: sample at cycle %d has %s = %d, but the ring holds %d %s events before it and %d at or before it",
						cpu, s.Cycle, name, c, lo, kind, hi)
				}
			}
		}
		// The span-shaped operations are where a counter bumped at the
		// start rather than the end would show; they must all occur.
		for _, kind := range []string{"tlb-miss", "minor-fault", "major-fault", "flush-page",
			"flush-range", "flush-context", "ctx-switch", "page-zero"} {
			if len(times[kind]) == 0 {
				t.Errorf("%s: the workload recorded no %s events", cpu, kind)
			}
		}
	}
}
