package report

import (
	"context"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"figure1", "table1", "table2", "table3",
		"sec5.1-bat", "sec5.2-htab-util", "sec6.1-fastreload",
		"sec6.2-nohtab", "sec7-lazy", "sec7-idle-reclaim",
		"sec7-ondemand", "sec8-ptcache", "sec9-idleclear",
		"sec10-futures", "tlb-reach", "htab-size", "swap-flush", "profile",
		"interactions", "mem-hierarchy", "trace-histograms", "chaos-soak",
		"telemetry-phases",
	}
	for _, id := range want {
		if _, ok := Find(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	// All() is sorted.
	es := All()
	for i := 1; i < len(es); i++ {
		if es[i-1].ID >= es[i].ID {
			t.Fatal("All() not sorted")
		}
	}
}

func TestRenderIncludesPaperComparison(t *testing.T) {
	tb := &Table{
		ID: "x", Title: "t",
		Headers: []string{"metric", "a"},
		Rows:    [][]string{{"m", "1"}},
		Paper:   [][]string{{"m", "2"}},
		Notes:   []string{"hello"},
	}
	out := tb.Render()
	for _, want := range []string{"[measured]", "[paper]", "note: hello", "metric"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFigure1(t *testing.T) {
	tb, ok := Find("figure1")
	if !ok {
		t.Fatal("figure1 missing")
	}
	out := tb.Run(context.Background(), Quick)
	if len(out.Rows) < 8 {
		t.Fatalf("figure1 rows = %d", len(out.Rows))
	}
	if !strings.Contains(out.Render(), "52-bit virtual address") {
		t.Fatal("figure1 missing the virtual-address step")
	}
}

// TestChaosSoakExperiment runs the robustness experiment at Quick
// scale: it must produce one row per fault kind and a passing audit
// note (a failing audit would have panicked inside Run).
func TestChaosSoakExperiment(t *testing.T) {
	e, ok := Find("chaos-soak")
	if !ok {
		t.Fatal("chaos-soak missing")
	}
	tb := e.Run(context.Background(), Quick)
	if len(tb.Rows) != 8 {
		t.Fatalf("chaos-soak rows = %d, want one per fault kind (8)", len(tb.Rows))
	}
	out := tb.Render()
	for _, want := range []string{"tlb-flip", "pte-flip", "escalate", "sections passed"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if us(3240) != "3240 us" {
		t.Errorf("us(3240) = %q", us(3240))
	}
	if us(41.2) != "41.2 us" {
		t.Errorf("us(41.2) = %q", us(41.2))
	}
	if us(2.5) != "2.50 us" {
		t.Errorf("us(2.5) = %q", us(2.5))
	}
	if mbps(52.34) != "52.3 MB/s" {
		t.Errorf("mbps = %q", mbps(52.34))
	}
	if pct(0.85) != "85.0%" {
		t.Errorf("pct = %q", pct(0.85))
	}
	if ratio(80, 1) != "80.00x" || ratio(1, 0) != "inf" {
		t.Error("ratio format")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration should panic")
		}
	}()
	register(Experiment{ID: "figure1"})
}
