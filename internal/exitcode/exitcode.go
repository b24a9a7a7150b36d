// Package exitcode is the repo-wide exit-status contract for the CLI
// tools. Historically every failure collapsed to 1, which made
// scripts/check.sh (and any orchestrator) unable to tell a
// budget-tripped experiment from a contained panic from a failed chaos
// audit. The codes here are
// stable: scripts and CI match on the numeric values.
//
// Precedence when one run carries several failure classes: Panic
// dominates BudgetExceeded dominates Internal — a panic is the most
// actionable signal, a budget trip the next, and the generic class
// last. Usage errors (bad flags) short-circuit before any run starts.
package exitcode

const (
	// OK is success.
	OK = 0
	// Internal is a harness-level failure that fits no specific class:
	// I/O errors, invalid options discovered mid-run, contained
	// failures classified only as canceled/timeout.
	Internal = 1
	// Usage is a command-line usage error (mutually exclusive flags,
	// unknown experiment, missing argument).
	Usage = 2
	// BudgetExceeded means at least one experiment degraded to
	// FAILED(cycle-budget): a ledger charged past its simulated-cycle
	// watchdog and the runner contained the trip.
	BudgetExceeded = 3
	// Panic means at least one experiment degraded to FAILED(panic):
	// the runner contained a crash (including injected-fault
	// escalations that took the workload down).
	Panic = 4
	// AuditFailure means a soak/verification audit failed on an
	// otherwise-healthy run: an mmuchaos identity did not hold, a
	// consistency sweep came back dirty, or a reconciliation row
	// mismatched.
	AuditFailure = 5
)

// ForFailReasons maps the report harness's per-experiment FailReason
// strings to the dominant exit code: Panic over BudgetExceeded over
// Internal, OK when no reasons are present.
func ForFailReasons(reasons []string) int {
	code := OK
	for _, r := range reasons {
		switch r {
		case "panic":
			return Panic
		case "cycle-budget":
			if code < BudgetExceeded {
				code = BudgetExceeded
			}
		case "":
		default: // canceled, timeout, anything new
			if code < Internal {
				code = Internal
			}
		}
	}
	return code
}
