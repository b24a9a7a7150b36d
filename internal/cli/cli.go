// Package cli is the mmu command: one dispatcher over the subcommands
// that drive the simulator — report, ablate, lmbench, kcompile, chaos,
// trace, model and htabviz.
//
// Every subcommand is a func(args, stdout, stderr) that returns its
// internal/exitcode status instead of exiting, so deferred cleanup
// always runs and tests drive the subcommands in process. The
// dispatcher contains a crash under Recover, stops the profiles that
// -cpuprofile and -memprofile started, and sets the GC target; the
// flags several subcommands share are declared once, by flagSet.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"

	"mmutricks/internal/clock"
	"mmutricks/internal/exitcode"
	"mmutricks/internal/kernel"
	"mmutricks/internal/report"
)

// command is one subcommand: its name, a one-line summary for the
// usage text, and its run function.
type command struct {
	name, summary string
	run           func(args []string, stdout, stderr io.Writer) int
}

// commands is the mmu subcommand table, in usage order.
var commands = []command{
	{"report", "regenerate the paper's tables and figures (measured vs paper)", runReport},
	{"ablate", "each optimization's solo and marginal gain (§4's interactions)", runAblate},
	{"lmbench", "the LmBench-style microbenchmarks on one machine and kernel", runLmbench},
	{"kcompile", "the kernel-compile macrobenchmark (§4)", runKcompile},
	{"chaos", "soak the kernel under deterministic fault injection", runChaos},
	{"trace", "record a workload's events and phases and explain them", runTrace},
	{"model", "model-check the context-switch/MM state machine", runModel},
	{"htabviz", "hash-table bucket occupancy vs VSID scatter constant (§5.2)", runHtabviz},
}

// Main runs the subcommand args[0] on args[1:] and returns the exit
// status.
func Main(args []string, stdout, stderr io.Writer) (code int) {
	// The simulator's live heap is small (each cell frees its machine
	// when it finishes) but cells allocate steadily; the default GC
	// target spends measurable wall clock collecting garbage that a
	// slightly lazier target absorbs for free. GOGC still overrides.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(300)
	}
	defer Recover("mmu", stderr, &code)
	defer func() { stopProfiles() }()
	return dispatch("mmu", commands, args, stdout, stderr)
}

// dispatch runs the command of cmds that args[0] names, or prints the
// usage of tool and fails.
func dispatch(tool string, cmds []command, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, c := range cmds {
			if c.name == args[0] {
				return c.run(args[1:], stdout, stderr)
			}
		}
		fmt.Fprintf(stderr, "%s: unknown command %q\n", tool, args[0])
	}
	fmt.Fprintf(stderr, "usage: %s <command> [flags]\n\ncommands:\n", tool)
	for _, c := range cmds {
		fmt.Fprintf(stderr, "  %-10s %s\n", c.name, c.summary)
	}
	return exitcode.Usage
}

// Recover contains a crashed or budget-tripped run instead of letting
// it die with status 2: it prints "<tool>: FAILED(<reason>): <panic>"
// and the stack to stderr, and sets *code to the exit-code contract's
// status for the reason. Defer it first, so every later defer (profile
// flushing included) still runs during the unwinding before the code
// is chosen.
func Recover(tool string, stderr io.Writer, code *int) {
	if p := recover(); p != nil {
		reason := report.FailureReason(p)
		fmt.Fprintf(stderr, "%s: FAILED(%s): %v\n%s", tool, reason, p, debug.Stack())
		*code = exitcode.ForFailReasons([]string{reason})
	}
}

// flagSet is a subcommand's flags. Its methods declare the flags that
// several subcommands share, and parse resolves them.
type flagSet struct {
	*flag.FlagSet
	stderr                 io.Writer
	cpuprofile, memprofile *string // declared by profiles
	cpuName, cfgName       *string // declared by cpu and config
	model                  clock.CPUModel
	cfg                    kernel.Config
	workers                *int // declared by jobs
	// counts are the scale flags declared by count, which parse
	// requires to be at least 1.
	counts []countFlag
}

// countFlag is a scale flag's name and value.
type countFlag struct {
	name string
	v    *int
}

// newFlags starts the flags of the subcommand name ("mmu report").
func newFlags(name string, stderr io.Writer) *flagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return &flagSet{FlagSet: fs, stderr: stderr}
}

// profiles declares -cpuprofile and -memprofile; parse starts the
// profiles and Main stops them when the subcommand returns.
func (f *flagSet) profiles() {
	f.cpuprofile = f.String("cpuprofile", "", "write a pprof CPU profile to this file")
	f.memprofile = f.String("memprofile", "", "write a pprof heap profile to this file on exit")
}

// cpu declares -cpu; parse resolves it into f.model.
func (f *flagSet) cpu(def string) {
	f.cpuName = f.String("cpu", def, "CPU model: 603/133, 603/180, 604/133, 604/185, 604/200")
}

// config declares -config; parse resolves it into f.cfg.
func (f *flagSet) config() {
	f.cfgName = f.String("config", "optimized", "kernel config: unoptimized, optimized, optimized+htab")
}

// iters declares -iters, the workload scale; parse requires it to be
// at least 1.
func (f *flagSet) iters() *int {
	return f.count("iters", 100, "workload scale (iterations per latency benchmark)")
}

// count declares an int flag that parse requires to be at least 1.
func (f *flagSet) count(name string, def int, usage string) *int {
	v := f.Int(name, def, usage)
	f.counts = append(f.counts, countFlag{name, v})
	return v
}

// jobs declares -j; parse sizes the simulator's worker pool with it.
func (f *flagSet) jobs() *int {
	f.workers = f.Int("j", runtime.GOMAXPROCS(0), "worker-pool size (the output is the same at any -j)")
	return f.workers
}

// out declares -o, the output file.
func (f *flagSet) out(def, usage string) *string {
	return f.String("o", def, usage)
}

// parse parses args, resolves -cpu and -config, sizes the worker pool
// and starts the profiles asked for. ok is false when the subcommand
// must stop and exit with code: a bad command line, or -h.
func (f *flagSet) parse(args []string) (code int, ok bool) {
	if err := f.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitcode.OK, false
		}
		return exitcode.Usage, false
	}
	for _, c := range f.counts {
		if *c.v < 1 {
			return f.fail(exitcode.Usage, fmt.Errorf("-%s %d: must be at least 1", c.name, *c.v)), false
		}
	}
	if f.cpuName != nil {
		if f.model, ok = clock.ModelByName(*f.cpuName); !ok {
			return f.fail(exitcode.Usage, fmt.Errorf("unknown cpu %q", *f.cpuName)), false
		}
	}
	if f.cfgName != nil {
		if f.cfg, ok = kernel.Named(*f.cfgName); !ok {
			return f.fail(exitcode.Usage, fmt.Errorf("unknown config %q", *f.cfgName)), false
		}
	}
	if f.workers != nil {
		report.SetParallelism(*f.workers)
	}
	if err := f.startProfiles(); err != nil {
		return f.fail(exitcode.Internal, err), false
	}
	return exitcode.OK, true
}

// stopProfiles finishes the profiles the running subcommand started.
// Profiling is process-wide, so one variable holds it; Main calls it
// when the subcommand returns.
var stopProfiles = func() {}

// startProfiles starts a CPU profile into -cpuprofile and arranges for
// stopProfiles to write a heap profile into -memprofile, then stop the
// CPU profile.
func (f *flagSet) startProfiles() error {
	if f.cpuprofile == nil || *f.cpuprofile == "" && *f.memprofile == "" {
		return nil
	}
	cpuPath, memPath := *f.cpuprofile, *f.memprofile
	stopCPU := func() {}
	if cpuPath != "" {
		out, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(out); err != nil {
			out.Close()
			return err
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			out.Close()
		}
	}
	stopProfiles = func() {
		stopProfiles = func() {}
		if memPath != "" {
			if err := createFile(memPath, func(w io.Writer) error {
				runtime.GC()
				return pprof.WriteHeapProfile(w)
			}); err != nil {
				fmt.Fprintf(f.stderr, "%s: %v\n", f.Name(), err)
			}
		}
		stopCPU()
	}
	return nil
}

// createFile creates path and fills it with write.
func createFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fail prints err under the subcommand's name and returns code.
func (f *flagSet) fail(code int, err error) int {
	fmt.Fprintf(f.stderr, "%s: %v\n", f.Name(), err)
	return code
}
