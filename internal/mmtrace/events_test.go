package mmtrace

import (
	"reflect"
	"testing"

	"mmutricks/internal/clock"
	"mmutricks/internal/hwmon"
)

// TestEventCallsBumpTheirCounters pins every typed event call to the
// exact hwmon counters it moves, by reflection over every Counters
// field: disabled or enabled, the listed fields move by the listed
// amounts and no other field moves; enabled, the call also adds one
// histogram count of its kind and one ring event. The table must name
// a call for every Kind and every event method of Tracer, so a new
// kind or call cannot land unclassified.
func TestEventCallsBumpTheirCounters(t *testing.T) {
	const aux = 7
	cases := []struct {
		method string
		kind   Kind
		call   func(*Tracer)
		bumps  map[string]uint64
	}{
		{"TLBMiss", KindTLBMiss, func(t *Tracer) { t.TLBMiss(1, 2, 3) }, map[string]uint64{"TLBMisses": 1}},
		{"TLBInsert", KindTLBInsert, func(t *Tracer) { t.TLBInsert(1, 2) }, nil},
		{"TLBEvict", KindTLBEvict, func(t *Tracer) { t.TLBEvict(1, 2) }, nil},
		{"HTABHitPrimary", KindHTABHitPrimary, func(t *Tracer) { t.HTABHitPrimary(1, 2, 3) },
			map[string]uint64{"HTABHits": 1, "HTABPrimaryHits": 1}},
		{"HTABHitSecondary", KindHTABHitSecondary, func(t *Tracer) { t.HTABHitSecondary(1, 2, 3) },
			map[string]uint64{"HTABHits": 1}},
		{"HTABMiss", KindHTABMiss, func(t *Tracer) { t.HTABMiss(1, 2, 3) }, map[string]uint64{"HTABMisses": 1}},
		{"HashMissRaised", KindHTABMiss, func(t *Tracer) { t.HashMissRaised(1, 2, 3) },
			map[string]uint64{"HTABMisses": 1, "HashMissFaults": 1}},
		{"HashMissHandled", KindHashMissFault, func(t *Tracer) { t.HashMissHandled(1, 2, 3) }, nil},
		{"SoftReload", KindSoftReload, func(t *Tracer) { t.SoftReload(1, 2, 3) }, map[string]uint64{"SoftwareReloads": 1}},
		{"HTABInsertFree", KindHTABInsertFree, func(t *Tracer) { t.HTABInsertFree(1, 3) },
			map[string]uint64{"HTABInserts": 1, "HTABFreeSlot": 1}},
		{"HTABEvictLive", KindHTABEvictLive, func(t *Tracer) { t.HTABEvictLive(1, 3) },
			map[string]uint64{"HTABInserts": 1, "HTABEvictsValid": 1}},
		{"HTABEvictZombie", KindHTABEvictZombie, func(t *Tracer) { t.HTABEvictZombie(1, 3) },
			map[string]uint64{"HTABInserts": 1, "HTABEvictsZombie": 1}},
		{"OnDemandScan", KindOnDemandScan, func(t *Tracer) { t.OnDemandScan(1, 3, aux) },
			map[string]uint64{"OnDemandScans": 1, "ZombiesReclaimed": aux}},
		{"MinorFault", KindMinorFault, func(t *Tracer) { t.MinorFault(1, 2, 3) }, map[string]uint64{"MinorFaults": 1}},
		{"MajorFault", KindMajorFault, func(t *Tracer) { t.MajorFault(1, 2, 3) }, map[string]uint64{"MajorFaults": 1}},
		{"FlushPage", KindFlushPage, func(t *Tracer) { t.FlushPage(1, 2, 3) }, map[string]uint64{"FlushPage": 1}},
		{"FlushRange", KindFlushRange, func(t *Tracer) { t.FlushRange(1, 2, 3, aux) }, map[string]uint64{"FlushRange": 1}},
		{"FlushCutoff", KindFlushCutoff, func(t *Tracer) { t.FlushCutoff(1, 2, aux) }, nil},
		{"FlushContext", KindFlushContext, func(t *Tracer) { t.FlushContext(1, 3, aux) }, map[string]uint64{"FlushContext": 1}},
		{"VSIDReassign", KindVSIDReassign, func(t *Tracer) { t.VSIDReassign(1, aux) }, nil},
		{"CtxSwitch", KindCtxSwitch, func(t *Tracer) { t.CtxSwitch(1, 3, aux) }, map[string]uint64{"CtxSwitches": 1}},
		{"IdleReclaim", KindIdleReclaim, func(t *Tracer) { t.IdleReclaim(3, aux) }, map[string]uint64{"ZombiesReclaimed": aux}},
		{"PageZero", KindPageZero, func(t *Tracer) { t.PageZero(0x1000, 3) }, map[string]uint64{"IdlePagesCleared": 1}},
		{"SwapOut", KindSwapOut, func(t *Tracer) { t.SwapOut(1, 2, 3) }, map[string]uint64{"SwapOuts": 1}},
		{"SwapIn", KindSwapIn, func(t *Tracer) { t.SwapIn(1, 2, 3) }, map[string]uint64{"SwapIns": 1}},
		{"CacheFill", KindCacheFill, func(t *Tracer) { t.CacheFill(0x1000, 3, aux) }, nil},
		{"MachineCheck", KindMachineCheck, func(t *Tracer) { t.MachineCheck(0x1000, 3, aux) }, map[string]uint64{"MachineChecks": 1}},
		{"MCRepairTLB", KindMCRepairTLB, func(t *Tracer) { t.MCRepairTLB(1, 3) }, map[string]uint64{"MCRepairsTLB": 1}},
		{"MCRepairHTAB", KindMCRepairHTAB, func(t *Tracer) { t.MCRepairHTAB(1, 0x1000, 3) }, map[string]uint64{"MCRepairsHTAB": 1}},
		{"MCRepairBAT", KindMCRepairBAT, func(t *Tracer) { t.MCRepairBAT(0x1000, 3) }, map[string]uint64{"MCRepairsBAT": 1}},
		{"MCRepairCache", KindMCRepairCache, func(t *Tracer) { t.MCRepairCache(0x1000, 3) }, map[string]uint64{"MCRepairsCache": 1}},
		{"MCEscalate", KindMCEscalate, func(t *Tracer) { t.MCEscalate(2, 3, aux) }, map[string]uint64{"MCEscalations": 1}},
		{"MCSpurious", KindMCSpurious, func(t *Tracer) { t.MCSpurious(0x1000, 3) }, map[string]uint64{"MCSpurious": 1}},
	}

	fields := reflect.TypeOf(hwmon.Counters{})
	kinds := map[Kind]bool{}
	methods := map[string]bool{}
	for _, c := range cases {
		kinds[c.kind] = true
		methods[c.method] = true
		for name := range c.bumps {
			if _, ok := fields.FieldByName(name); !ok {
				t.Errorf("%s: table names unknown counter %s", c.method, name)
			}
		}
		for _, enabled := range []bool{false, true} {
			tr := NewTracer(clock.NewLedger(100), &hwmon.Counters{}, 8)
			if enabled {
				tr.Enable()
			}
			c.call(tr)
			got := reflect.ValueOf(*tr.Counters())
			for i := 0; i < got.NumField(); i++ {
				name := fields.Field(i).Name
				if d := got.Field(i).Uint(); d != c.bumps[name] {
					t.Errorf("%s (enabled=%v): %s moved by %d, want %d", c.method, enabled, name, d, c.bumps[name])
				}
			}
			wantEvents := uint64(0)
			if enabled {
				wantEvents = 1
			}
			var histTotal uint64
			for _, h := range tr.Hists() {
				histTotal += h.Count
			}
			if tr.Emitted() != wantEvents || histTotal != wantEvents || tr.Hist(c.kind).Count != wantEvents {
				t.Errorf("%s (enabled=%v): %d ring events, %d histogram counts (%d of %v), want %d of %v",
					c.method, enabled, tr.Emitted(), histTotal, tr.Hist(c.kind).Count, c.kind, wantEvents, c.kind)
			}
			if enabled && len(tr.Events()) == 1 && tr.Events()[0].Kind != c.kind {
				t.Errorf("%s: recorded kind %v, want %v", c.method, tr.Events()[0].Kind, c.kind)
			}
		}
	}
	for k := Kind(0); k < NumKinds; k++ {
		if !kinds[k] {
			t.Errorf("kind %v has no typed call in the table", k)
		}
	}

	// Every exported Tracer method outside the accessors is an event
	// call and must sit in the table.
	accessors := map[string]bool{
		"Capacity": true, "Counters": true, "Disable": true, "Dropped": true, "Emitted": true,
		"Enable": true, "Enabled": true, "Events": true, "Hist": true, "Hists": true,
		"Reset": true, "SetTask": true, "TaskStats": true,
	}
	tt := reflect.TypeOf(&Tracer{})
	for i := 0; i < tt.NumMethod(); i++ {
		if name := tt.Method(i).Name; !accessors[name] && !methods[name] {
			t.Errorf("event method %s has no row in the table", name)
		}
	}
}
