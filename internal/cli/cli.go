// Package cli holds what the command-line tools share: containing a
// crashed run under the internal/exitcode contract, and the
// -cpuprofile/-memprofile setup.
package cli

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"

	"mmutricks/internal/exitcode"
	"mmutricks/internal/report"
)

// Recover contains a crashed or budget-tripped run instead of letting
// it die with status 2: it prints "<tool>: FAILED(<reason>): <panic>"
// and the stack to stderr, and sets *code to the exit-code contract's
// status for the reason. Defer it first in the tool's run function, so
// every later defer (profile flushing included) still runs during the
// unwinding before the code is chosen:
//
//	func run() (code int) {
//		defer cli.Recover("ablate", &code)
func Recover(tool string, code *int) {
	if p := recover(); p != nil {
		reason := report.FailureReason(p)
		fmt.Fprintf(os.Stderr, "%s: FAILED(%s): %v\n%s", tool, reason, p, debug.Stack())
		*code = exitcode.ForFailReasons([]string{reason})
	}
}

// Profile starts a pprof CPU profile into cpuPath when it is set, and
// returns the function to defer: it writes a heap profile into memPath
// when that is set (reporting a failure on stderr under the tool's
// name), then stops the CPU profile. An error means the CPU profile
// could not start.
func Profile(tool, cpuPath, memPath string) (stop func(), err error) {
	stopCPU := func() {}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	return func() {
		if memPath != "" {
			if err := writeHeapProfile(memPath); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
			}
		}
		stopCPU()
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}
