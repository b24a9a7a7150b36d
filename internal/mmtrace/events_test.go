package mmtrace

import (
	"reflect"
	"testing"

	"mmutricks/internal/arch"
	"mmutricks/internal/clock"
	"mmutricks/internal/hwmon"
	"mmutricks/internal/telemetry"
)

// TestEventCallsBumpTheirCounters pins every typed call to the exact
// hwmon counters it moves and the phase it enters, by reflection over
// every Counters field: disabled or enabled, the listed fields move by
// the listed amounts and no other field moves; enabled, an event call
// also adds one histogram count of its kind and one ring event, and a
// span call (its row's closure enters the span too) adds one entry of
// exactly its phase and leaves that phase open (an entering call) or
// closed. The table must name a call for every Kind and every event or
// span method of Tracer, so a new kind or call cannot land
// unclassified.
func TestEventCallsBumpTheirCounters(t *testing.T) {
	const aux = 7
	// noEvent and noPhase mark the rows that record no event or enter
	// no phase.
	const noEvent, noPhase = NumKinds, telemetry.Phase(-1)
	var vs arch.VSID = 1
	cases := []struct {
		method string
		kind   Kind
		call   func(*Tracer)
		bumps  map[string]uint64
		phase  telemetry.Phase
		open   bool
	}{
		{"TLBMiss", KindTLBMiss, func(t *Tracer) { t.TLBMiss(1, 2, 3) }, map[string]uint64{"TLBMisses": 1}, noPhase, false},
		{"TLBInsert", KindTLBInsert, func(t *Tracer) { t.TLBInsert(1, 2) }, nil, noPhase, false},
		{"TLBEvict", KindTLBEvict, func(t *Tracer) { t.TLBEvict(1, 2) }, nil, noPhase, false},
		{"HTABHitPrimary", KindHTABHitPrimary, func(t *Tracer) { t.HTABHitPrimary(1, 2, 3) },
			map[string]uint64{"HTABHits": 1, "HTABPrimaryHits": 1}, noPhase, false},
		{"HTABHitSecondary", KindHTABHitSecondary, func(t *Tracer) { t.HTABHitSecondary(1, 2, 3) },
			map[string]uint64{"HTABHits": 1}, noPhase, false},
		{"HTABMiss", KindHTABMiss, func(t *Tracer) { t.HTABMiss(1, 2, 3) }, map[string]uint64{"HTABMisses": 1}, noPhase, false},
		{"HashMissRaised", KindHTABMiss, func(t *Tracer) { t.HashMissRaised(1, 2, 3) },
			map[string]uint64{"HTABMisses": 1, "HashMissFaults": 1}, noPhase, false},
		{"HashMissHandled", KindHashMissFault, func(t *Tracer) { t.HashMissHandled(1, 2, 3) }, nil, noPhase, false},
		{"SoftReload", KindSoftReload, func(t *Tracer) { t.SoftReload(1, 2, 3) }, map[string]uint64{"SoftwareReloads": 1}, noPhase, false},
		{"HTABInsertFree", KindHTABInsertFree, func(t *Tracer) { t.HTABInsertFree(1, 3) },
			map[string]uint64{"HTABInserts": 1, "HTABFreeSlot": 1}, noPhase, false},
		{"HTABEvictLive", KindHTABEvictLive, func(t *Tracer) { t.HTABEvictLive(1, 3) },
			map[string]uint64{"HTABInserts": 1, "HTABEvictsValid": 1}, noPhase, false},
		{"HTABEvictZombie", KindHTABEvictZombie, func(t *Tracer) { t.HTABEvictZombie(1, 3) },
			map[string]uint64{"HTABInserts": 1, "HTABEvictsZombie": 1}, noPhase, false},
		{"OnDemandScan", KindOnDemandScan, func(t *Tracer) { t.OnDemandScan(1, 3, aux) },
			map[string]uint64{"OnDemandScans": 1, "ZombiesReclaimed": aux}, noPhase, false},
		{"MinorFault", KindMinorFault, func(t *Tracer) { t.MinorFault(1, 2, 3) }, map[string]uint64{"MinorFaults": 1}, noPhase, false},
		{"COWBreak", KindMinorFault, func(t *Tracer) { t.COWBreak(t.Enter(telemetry.PhaseFault), &vs, 2) },
			map[string]uint64{"MinorFaults": 1}, telemetry.PhaseFault, false},
		{"MajorFault", KindMajorFault, func(t *Tracer) { t.MajorFault(1, 2, 3) }, map[string]uint64{"MajorFaults": 1}, noPhase, false},
		{"FlushPage", KindFlushPage, func(t *Tracer) { t.FlushPage(1, 2, 3) }, map[string]uint64{"FlushPage": 1}, noPhase, false},
		{"FlushRange", KindFlushRange, func(t *Tracer) { t.FlushRange(1, 2, 3, aux) }, map[string]uint64{"FlushRange": 1}, noPhase, false},
		{"FlushCutoff", KindFlushCutoff, func(t *Tracer) { t.FlushCutoff(1, 2, aux) }, nil, noPhase, false},
		{"FlushContext", KindFlushContext, func(t *Tracer) { t.FlushContext(1, 3, aux) }, map[string]uint64{"FlushContext": 1}, noPhase, false},
		{"VSIDReassign", KindVSIDReassign, func(t *Tracer) { t.VSIDReassign(1, aux) }, nil, noPhase, false},
		{"CtxSwitch", KindCtxSwitch, func(t *Tracer) { t.CtxSwitch(t.Enter(telemetry.PhaseCtxSwitch), &vs, aux) },
			map[string]uint64{"CtxSwitches": 1}, telemetry.PhaseCtxSwitch, false},
		{"IdleReclaim", KindIdleReclaim, func(t *Tracer) { t.IdleReclaim(3, aux) }, map[string]uint64{"ZombiesReclaimed": aux}, noPhase, false},
		{"PageZero", KindPageZero, func(t *Tracer) { t.PageZero(0x1000, 3) }, map[string]uint64{"IdlePagesCleared": 1}, noPhase, false},
		{"SwapOut", KindSwapOut, func(t *Tracer) { t.SwapOut(t.Enter(telemetry.PhaseSwap), &vs, 2) },
			map[string]uint64{"SwapOuts": 1}, telemetry.PhaseSwap, false},
		{"SwapIn", KindSwapIn, func(t *Tracer) { t.SwapIn(t.Enter(telemetry.PhaseSwap), &vs, 2) },
			map[string]uint64{"SwapIns": 1}, telemetry.PhaseSwap, false},
		{"CacheFill", KindCacheFill, func(t *Tracer) { t.CacheFill(0x1000, 3, aux) }, nil, noPhase, false},
		{"MachineCheck", KindMachineCheck, func(t *Tracer) { t.MachineCheck(0x1000, 3, aux) }, map[string]uint64{"MachineChecks": 1}, noPhase, false},
		{"MCRepairTLB", KindMCRepairTLB, func(t *Tracer) { t.MCRepairTLB(1, 3) }, map[string]uint64{"MCRepairsTLB": 1}, noPhase, false},
		{"MCRepairHTAB", KindMCRepairHTAB, func(t *Tracer) { t.MCRepairHTAB(1, 0x1000, 3) }, map[string]uint64{"MCRepairsHTAB": 1}, noPhase, false},
		{"MCRepairBAT", KindMCRepairBAT, func(t *Tracer) { t.MCRepairBAT(0x1000, 3) }, map[string]uint64{"MCRepairsBAT": 1}, noPhase, false},
		{"MCRepairCache", KindMCRepairCache, func(t *Tracer) { t.MCRepairCache(0x1000, 3) }, map[string]uint64{"MCRepairsCache": 1}, noPhase, false},
		{"MCEscalate", KindMCEscalate, func(t *Tracer) { t.MCEscalate(2, 3, aux) }, map[string]uint64{"MCEscalations": 1}, noPhase, false},
		{"MCSpurious", KindMCSpurious, func(t *Tracer) { t.MCSpurious(0x1000, 3) }, map[string]uint64{"MCSpurious": 1}, noPhase, false},
		{"Enter", noEvent, func(t *Tracer) { t.Enter(telemetry.PhaseFlush) }, nil, telemetry.PhaseFlush, true},
		{"Exit", noEvent, func(t *Tracer) { t.Exit(t.Enter(telemetry.PhaseFlush)) }, nil, telemetry.PhaseFlush, false},
		{"Syscall", noEvent, func(t *Tracer) { t.Syscall() }, map[string]uint64{"Syscalls": 1}, telemetry.PhaseSyscall, true},
		{"IdleWait", noEvent, func(t *Tracer) { t.IdleWait() }, map[string]uint64{"IdleWaits": 1}, telemetry.PhaseIdle, true},
		{"IdleScan", noEvent, func(t *Tracer) { t.IdleScan() }, map[string]uint64{"IdleScans": 1}, telemetry.PhaseIdleReclaim, true},
		{"KthreadMMSwitch", noEvent, func(t *Tracer) { t.KthreadMMSwitch() },
			map[string]uint64{"KthreadMMSwitches": 1}, telemetry.PhaseCtxSwitch, true},
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
			led := clock.NewLedger(100)
			tr := NewTracer(led, &hwmon.Counters{}, 8)
			ph := tr.Phases()
			if enabled {
				tr.Enable()
				ph.Enable(telemetry.Options{})
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
			if enabled && c.kind != noEvent {
				wantEvents = 1
			}
			var histTotal uint64
			for _, h := range tr.Hists() {
				histTotal += h.Count
			}
			if tr.Emitted() != wantEvents || histTotal != wantEvents {
				t.Errorf("%s (enabled=%v): %d ring events, %d histogram counts, want %d",
					c.method, enabled, tr.Emitted(), histTotal, wantEvents)
			}
			if wantEvents == 1 && tr.Hist(c.kind).Count != 1 {
				t.Errorf("%s: recorded %v, want one %v", c.method, tr.Events()[0].Kind, c.kind)
			}
			if !enabled {
				continue
			}
			// Cycles charged after the call land in the phase it left
			// open, or in user time.
			led.Charge(5)
			ph.Sync()
			wantOpen := telemetry.PhaseUser
			if c.open {
				wantOpen = c.phase
			}
			for _, p := range telemetry.AllPhases {
				wantEnters, wantCycles := uint64(0), clock.Cycles(0)
				if p == c.phase {
					wantEnters = 1
				}
				if p == wantOpen {
					wantCycles = 5
				}
				if ph.Enters(p) != wantEnters || ph.Cycles(p) != wantCycles {
					t.Errorf("%s: phase %v entered %d times holding %d cycles, want %d and %d",
						c.method, p, ph.Enters(p), ph.Cycles(p), wantEnters, wantCycles)
				}
			}
		}
	}
	for k := Kind(0); k < NumKinds; k++ {
		if !kinds[k] {
			t.Errorf("kind %v has no typed call in the table", k)
		}
	}

	// Every exported Tracer method outside the accessors is an event
	// or span call and must sit in the table.
	accessors := map[string]bool{
		"Capacity": true, "Counters": true, "Disable": true, "Dropped": true, "Emitted": true,
		"Enable": true, "Enabled": true, "Events": true, "Hist": true, "Hists": true,
		"Phases": true, "Reset": true, "SetTask": true, "TaskStats": true,
	}
	tt := reflect.TypeOf(&Tracer{})
	for i := 0; i < tt.NumMethod(); i++ {
		if name := tt.Method(i).Name; !accessors[name] && !methods[name] {
			t.Errorf("event method %s has no row in the table", name)
		}
	}
}

// TestSpanEventCostsFromEntry pins how a span-ending event call fills
// its event: the cost runs from the entering call, and the VSID is read
// at the end, after the operation may have replaced it.
func TestSpanEventCostsFromEntry(t *testing.T) {
	led := clock.NewLedger(100)
	tr := NewTracer(led, &hwmon.Counters{}, 8)
	tr.Enable()
	led.Charge(40)
	segs := [2]arch.VSID{1, 2}
	s := tr.Enter(telemetry.PhaseSwap)
	led.Charge(9)
	segs[1] = 5
	tr.SwapOut(s, &segs[1], 0x3000)
	e := tr.Events()[0]
	if e.Cost != 9 || e.Time != 49 || e.VSID != 5 || e.EA != 0x3000 {
		t.Fatalf("event %+v, want cost 9 at 49 on VSID 5", e)
	}
}
