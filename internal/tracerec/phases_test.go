package tracerec

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mmutricks/internal/telemetry"
)

// Telemetry recordings round-trip through JSON unchanged.
func TestTelemetryRoundTrip(t *testing.T) {
	rec := record(t, RecordOptions{
		Workload: "lmbench", CPU: "604/185", Config: "optimized", Iters: 5,
		SampleInterval: 1 << 16,
	})
	data := serialize(t, rec)
	var back Recording
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, serialize(t, &back)) {
		t.Fatal("telemetry recording changed across a JSON round trip")
	}
}

// The sample ring keeps the first telemetry.DefaultSampleCapacity
// samples and counts the rest as dropped, so a truncated timeline is
// still differenceable from its origin.
func TestTelemetrySampleRingOverflow(t *testing.T) {
	rec := record(t, RecordOptions{
		Workload: "kbuild", CPU: "604/185", Config: "optimized", Iters: 40,
		SampleInterval: 1 << 12,
	})
	td := rec.Sections[0].Telemetry
	if len(td.Samples) != telemetry.DefaultSampleCapacity {
		t.Fatalf("ring holds %d samples, want its capacity %d", len(td.Samples), telemetry.DefaultSampleCapacity)
	}
	if td.Dropped == 0 {
		t.Fatalf("a 4Ki-cycle interval over a kbuild run must overflow the %d-slot ring", telemetry.DefaultSampleCapacity)
	}
	for i := 1; i < len(td.Samples); i++ {
		if td.Samples[i].Boundary <= td.Samples[i-1].Boundary {
			t.Fatalf("sample %d boundary %d not after %d", i, td.Samples[i].Boundary, td.Samples[i-1].Boundary)
		}
	}
}

// The serialized phase totals obey the same conservation identity the
// live ledger proves: they sum to the cycles the section consumed.
func TestTelemetryPhaseTotalsConserve(t *testing.T) {
	rec := record(t, RecordOptions{
		Workload: "stress", CPU: "603/133", Config: "optimized", Iters: 20,
	})
	for _, s := range rec.Sections {
		td := s.Telemetry
		if td == nil {
			t.Fatalf("section %s: no telemetry", s.Name)
		}
		var attributed uint64
		for _, c := range td.PhaseCycles {
			attributed += c
		}
		var tasks uint64
		for _, row := range td.Tasks {
			tasks += row.Cycles
		}
		if tasks != attributed {
			t.Errorf("section %s: task attribution %d != phase total %d", s.Name, tasks, attributed)
		}
		var mms uint64
		for _, row := range td.MMs {
			mms += row.Cycles
		}
		if mms != attributed {
			t.Errorf("section %s: mm attribution %d != phase total %d", s.Name, mms, attributed)
		}
	}
}

// Every phase-table row and every derived-rate line comes out of
// Summarize; Timeline carries the header it promises.
func TestPhaseRenderersCoverPhases(t *testing.T) {
	rec := record(t, RecordOptions{
		Workload: "lmbench", CPU: "604/185", Config: "optimized", Iters: 20,
		SampleInterval: 1 << 14,
	})
	var summary bytes.Buffer
	Summarize(&summary, rec, 10)
	out := summary.String()
	for _, name := range telemetry.PhaseNames() {
		if !strings.Contains(out, name) {
			t.Errorf("Summarize output missing phase %q", name)
		}
	}
	for _, want := range []string{"cycles attributed", "derived rates:", "faults / Mcycle", "per-task cycles", "p999<="} {
		if !strings.Contains(out, want) {
			t.Errorf("Summarize output missing %q", want)
		}
	}

	var timeline bytes.Buffer
	Timeline(&timeline, rec)
	if !strings.Contains(timeline.String(), "dominant") {
		t.Error("Timeline missing its header")
	}

	var chrome bytes.Buffer
	if err := rec.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chrome.String(), `"ph":"C"`) {
		t.Error("chrome dump of a telemetry recording missing counter events")
	}
}
