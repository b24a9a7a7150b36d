package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmutricks/internal/exitcode"
)

// TestRecoverClassifies checks the contained-failure path every tool
// shares: the panic's reason picks the exit code and heads the stderr
// line, and a clean run keeps its own code.
func TestRecoverClassifies(t *testing.T) {
	stderr := os.Stderr
	defer func() { os.Stderr = stderr }()
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = f

	run := func(p any) (code int) {
		defer Recover("tool", &code)
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
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"tool: FAILED(panic): boom\n", "tool: FAILED(cycle-budget): clock: cycle budget exceeded\n"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("stderr lacks %q:\n%s", want, out)
		}
	}
}
