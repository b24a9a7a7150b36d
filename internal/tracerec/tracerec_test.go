package tracerec

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmutricks/internal/report"
	"mmutricks/internal/telemetry"
)

func record(t *testing.T, opts RecordOptions) *Recording {
	t.Helper()
	rec, err := Record(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func serialize(t *testing.T, rec *Recording) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// renderAll runs every view over a recording and returns the
// concatenated output, the byte string the determinism test compares.
func renderAll(t *testing.T, rec *Recording) []byte {
	t.Helper()
	var buf bytes.Buffer
	Summarize(&buf, rec, 10)
	Timeline(&buf, rec)
	Diff(&buf, rec, rec)
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteProfile(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Identical runs must produce byte-identical recordings, and every
// view of them byte-identical output, at any -j, on both the lmbench
// suite and the kernel compile.
func TestRecordDeterministicAcrossParallelism(t *testing.T) {
	defer report.SetParallelism(1)
	for _, wl := range []string{"lmbench", "kbuild"} {
		opts := RecordOptions{Workload: wl, CPU: "604/185", Config: "optimized", Iters: 20, SampleInterval: 1 << 16}

		report.SetParallelism(1)
		recSerial := record(t, opts)
		serial := serialize(t, recSerial)
		serialOut := renderAll(t, recSerial)

		report.SetParallelism(8)
		recPar := record(t, opts)
		parallel2 := serialize(t, record(t, opts))
		report.SetParallelism(1)
		parallel := serialize(t, recPar)

		if !bytes.Equal(serial, parallel) {
			t.Fatalf("%s: recording differs between -j 1 and -j 8", wl)
		}
		if !bytes.Equal(parallel, parallel2) {
			t.Fatalf("%s: two identical -j 8 recordings differ", wl)
		}
		if !bytes.Equal(serialOut, renderAll(t, recPar)) {
			t.Fatalf("%s: views differ between -j 1 and -j 8", wl)
		}
	}
}

// The acceptance criterion: an lmbench recording's per-class histogram
// totals reconcile with the hwmon counter deltas of the same run.
func TestRecordReconcilesWithCounters(t *testing.T) {
	for _, cfg := range []string{"unoptimized", "optimized", "optimized+htab"} {
		for _, cpu := range []string{"603/133", "604/185"} {
			rec := record(t, RecordOptions{Workload: "lmbench", CPU: cpu, Config: cfg, Iters: 20})
			var buf bytes.Buffer
			if n := Summarize(&buf, rec, 5); n != 0 {
				t.Errorf("%s/%s: %d reconciliation mismatches:\n%s", cpu, cfg, n,
					grepLines(buf.String(), "MISMATCH"))
			}
		}
	}
}

func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rec := record(t, RecordOptions{Workload: "stress", CPU: "603/133", Config: "optimized", Iters: 10, Capacity: 256})
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := rec.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialize(t, rec), serialize(t, got)) {
		t.Fatal("recording changed across save/load")
	}
	if got.Meta.Capacity != 256 {
		t.Fatalf("capacity = %d, want 256", got.Meta.Capacity)
	}
}

func TestLoadRejectsForeignFiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bogus.json")
	if err := writeFile(path, `{"meta":{"tool":"other","version":9}}`); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load accepted a foreign file")
	}
}

// A recording whose sections lack the phase-ledger capture is refused
// at the boundary, with the command that makes a complete one.
func TestLoadRejectsRecordingWithoutTelemetry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	if err := writeFile(path, `{"meta":{"tool":"mmutrace","version":1},"sections":[{"name":"nullsys"}]}`); err != nil {
		t.Fatal(err)
	}
	_, err := Load(path)
	if err == nil || !strings.Contains(err.Error(), "mmu trace record") {
		t.Fatalf("Load error %v, want one naming mmu trace record", err)
	}
}

func TestDumpFormats(t *testing.T) {
	rec := record(t, RecordOptions{Workload: "lmbench", CPU: "604/185", Config: "optimized", Iters: 5})

	var jsonl bytes.Buffer
	if err := rec.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(jsonl.String(), "\n")
	var events int
	for _, s := range rec.Sections {
		events += len(s.Events)
	}
	if lines != events+1 {
		t.Fatalf("JSONL has %d lines, want %d (meta + one per event)", lines, events+1)
	}

	var chrome bytes.Buffer
	if err := rec.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	out := chrome.String()
	if !strings.Contains(out, `"traceEvents"`) || !strings.Contains(out, `"ph":"X"`) {
		t.Fatal("chrome dump missing traceEvents/X records")
	}
}

func TestRecordRejectsBadOptions(t *testing.T) {
	if _, err := Record(context.Background(), RecordOptions{Workload: "nope", CPU: "604/185", Config: "optimized"}); !errors.Is(err, ErrUnknownWorkload) {
		t.Fatalf("unknown workload: error %v, want one wrapping ErrUnknownWorkload", err)
	}
	if _, err := Record(context.Background(), RecordOptions{Workload: "lmbench", CPU: "bogus", Config: "optimized"}); err == nil {
		t.Fatal("unknown cpu accepted")
	}
	if _, err := Record(context.Background(), RecordOptions{Workload: "lmbench", CPU: "604/185", Config: "bogus"}); err == nil {
		t.Fatal("unknown config accepted")
	}
}

func TestDiffRunsAndMentionsEveryActiveKind(t *testing.T) {
	a := record(t, RecordOptions{Workload: "lmbench", CPU: "604/185", Config: "optimized", Iters: 5})
	b := record(t, RecordOptions{Workload: "lmbench", CPU: "604/185", Config: "unoptimized", Iters: 5})
	var buf bytes.Buffer
	Diff(&buf, a, b)
	out := buf.String()
	for name := range a.Sections[0].Hists {
		if !strings.Contains(out, name) {
			t.Errorf("diff output missing active kind %q", name)
		}
	}
	_, phases, ok := strings.Cut(out, "enters B\n")
	if !ok {
		t.Fatal("diff output missing the phase table")
	}
	for _, name := range telemetry.PhaseNames() {
		if !strings.Contains("\n"+phases, "\n"+name+" ") {
			t.Errorf("diff output missing phase row %q", name)
		}
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
