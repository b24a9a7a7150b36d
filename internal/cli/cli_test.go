package cli

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mmutricks/internal/exitcode"
	"mmutricks/internal/report"
)

// mmu runs the mmu command in process and returns its exit status,
// stdout and stderr.
func mmu(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := Main(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestRecoverClassifies checks the contained-failure path every
// subcommand runs under: the panic's reason picks the exit code and
// heads the stderr line, and a clean run keeps its own code.
func TestRecoverClassifies(t *testing.T) {
	var stderr bytes.Buffer
	run := func(p any) (code int) {
		defer Recover("tool", &stderr, &code)
		if p != nil {
			panic(p)
		}
		return exitcode.OK
	}
	cases := []struct {
		p    any
		code int
	}{
		{nil, exitcode.OK},
		{"boom", exitcode.Panic},
		{"clock: cycle budget exceeded", exitcode.BudgetExceeded},
	}
	for _, c := range cases {
		if got := run(c.p); got != c.code {
			t.Errorf("panic %v: code %d, want %d", c.p, got, c.code)
		}
	}
	for _, want := range []string{"tool: FAILED(panic): boom\n", "tool: FAILED(cycle-budget): clock: cycle budget exceeded\n"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
		}
	}
}

// TestExitCodes pins the dispatcher's side of the exit-code contract:
// every command-line mistake exits 2 before any simulation starts, and
// a subcommand that panics exits 4 instead of Go's own status 2.
func TestExitCodes(t *testing.T) {
	commands = append(commands, command{name: "panic", run: func([]string, io.Writer, io.Writer) int { panic("boom") }})
	t.Cleanup(func() { commands = commands[:len(commands)-1] })

	cases := [][]string{
		{},
		{"no-such-command"},
		{"report"},
		{"report", "-quick", "-full"},
		{"report", "-experiment", "no-such-experiment"},
		{"lmbench", "-cpu", "601/66"},
		{"lmbench", "-config", "fastest"},
		{"kcompile", "-cpu", "601/66"},
		{"kcompile", "-config", "fastest"},
		{"ablate", "-cpu", "601/66"},
		{"chaos", "-cpu", "601/66"},
		{"chaos", "-config", "fastest"},
		{"chaos", "-workload", "none"},
		{"chaos", "-schedule", "rate=lots"},
		{"stat"},
		{"stat", "record", "-cpu", "601/66"},
		{"stat", "record", "-config", "fastest"},
		{"stat", "timeline"},
		{"stat", "diff", "one.json"},
		{"trace", "record", "-cpu", "601/66"},
		{"trace", "record", "-config", "fastest"},
		{"trace", "summarize", "a.json", "b.json"},
		{"model", "-mutate", "nonsense"},
		{"model", "-cpus", "9"},
		{"model", "-refine", "-cpus", "2"},
		{"htabviz", "-scatter", "1,x"},
	}
	// A flag no subcommand declares, on every subcommand.
	for _, c := range commands {
		if c.name != "panic" {
			cases = append(cases, []string{c.name, "-no-such-flag"})
		}
	}
	for _, sub := range []string{"stat record", "stat timeline", "stat phases", "stat diff",
		"trace record", "trace dump", "trace summarize", "trace diff"} {
		cases = append(cases, append(strings.Fields(sub), "-no-such-flag"))
	}
	for _, args := range cases {
		if code, _, stderr := mmu(args...); code != exitcode.Usage {
			t.Errorf("mmu %v: exit %d, want %d; stderr: %s", args, code, exitcode.Usage, stderr)
		}
	}

	code, _, stderr := mmu("panic")
	if code != exitcode.Panic || !strings.Contains(stderr, "mmu: FAILED(panic): boom") {
		t.Errorf("mmu panic: exit %d, want %d; stderr: %s", code, exitcode.Panic, stderr)
	}
}

// TestProfilesWritten checks that the dispatcher stops the profiles a
// subcommand's -cpuprofile and -memprofile started, so both files are
// complete when it returns.
func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if code, _, stderr := mmu("kcompile", "-units", "1", "-cpuprofile", cpu, "-memprofile", mem); code != exitcode.OK {
		t.Fatalf("exit %d; stderr: %s", code, stderr)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: not written (%v)", path, err)
		}
	}
}

// TestReportListsEveryExperiment keeps every paper experiment reachable
// from the command line: mmu report -list names each registered id.
func TestReportListsEveryExperiment(t *testing.T) {
	code, stdout, stderr := mmu("report", "-list")
	if code != exitcode.OK {
		t.Fatalf("exit %d; stderr: %s", code, stderr)
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		listed[strings.Fields(line)[0]] = true
	}
	for _, e := range report.All() {
		if !listed[e.ID] {
			t.Errorf("mmu report -list does not list %s", e.ID)
		}
	}
	if len(listed) != len(report.All()) {
		t.Errorf("mmu report -list printed %d ids, the registry has %d", len(listed), len(report.All()))
	}
}

// A -j N pass on a host that cannot run two goroutines at once measures
// scheduling, not parallel scaling, so -benchjson must not publish its
// ratio as a speedup.
func TestBenchJSONSpeedupNeedsTwoCPUs(t *testing.T) {
	cases := []struct {
		cpus, procs int
		want        bool
	}{
		{1, 1, false},
		{1, 8, false},
		{8, 1, false},
		{2, 2, true},
		{8, 8, true},
	}
	for _, tc := range cases {
		d := benchDoc{HostCPUs: tc.cpus, GoMaxProcs: tc.procs}
		d.setSpeedup(2*time.Second, time.Second)
		out, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(string(out), `"speedup"`); got != tc.want {
			t.Errorf("host_cpus %d, gomaxprocs %d: speedup present = %v, want %v: %s", tc.cpus, tc.procs, got, tc.want, out)
		}
		if tc.want && *d.Speedup != 2 {
			t.Errorf("host_cpus %d, gomaxprocs %d: speedup = %v, want 2", tc.cpus, tc.procs, *d.Speedup)
		}
	}
}
