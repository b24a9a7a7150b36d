package cli

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"mmutricks/internal/chaos"
	"mmutricks/internal/exitcode"
	"mmutricks/internal/tracerec"
)

// runChaos soaks the simulated kernel under deterministic fault
// injection and audits its machine-check recovery:
//
//	mmu chaos -workload all -cpu 604/185 -config optimized \
//	          -schedule "seed=42 rate=500ppm burst=1 mix=all" -o chaos.json
//
// Each workload section runs on a fresh machine with its own seeded
// injector, so the JSON report is byte-identical for a given schedule
// at any -j. The exit status separates the failure classes
// (internal/exitcode): 5 if any section's audit failed — an injected
// fault not repaired (or not escalated), a dirty post-run consistency
// sweep, or a trace/counter reconciliation mismatch — 2 for bad
// options, and 1 for I/O errors.
func runChaos(args []string, stdout, stderr io.Writer) int {
	f := newFlags("mmu chaos", stderr)
	f.cpu("604/185")
	f.config()
	f.jobs()
	var (
		workload = f.String("workload", "all", "workload: lmbench, kbuild, stress, escalate, all")
		iters    = f.iters()
		schedule = f.String("schedule", "seed=42 rate=500ppm burst=1 mix=all", "fault schedule (seed=N rate=Nppm burst=N mix=kind:w,... | all | none)")
		out      = f.out("", "output file (empty = stdout)")
	)
	if code, ok := f.parse(args); !ok {
		return code
	}
	rep, err := chaos.Run(context.Background(), chaos.Options{
		Workload: *workload,
		CPU:      *f.cpuName,
		Config:   *f.cfgName,
		Iters:    *iters,
		Schedule: *schedule,
	})
	if err != nil {
		// Run fails only on its options, before any section runs.
		return f.fail(exitcode.Usage, err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return f.fail(exitcode.Internal, err)
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = stdout.Write(data)
	} else {
		err = os.WriteFile(*out, data, 0o644)
	}
	if err != nil {
		return f.fail(exitcode.Internal, err)
	}

	for _, s := range rep.Sections {
		status := "ok"
		if !s.OK {
			status = "FAILED"
		}
		fmt.Fprintf(stderr, "%-14s %s  mc=%d repairs=%d escalations=%d spurious=%d\n",
			s.Name, status, s.MachineChecks,
			s.RepairsTLB+s.RepairsHTAB+s.RepairsBAT+s.RepairsCache,
			s.Escalations, s.Spurious)
		for _, fl := range s.Failures {
			fmt.Fprintf(stderr, "  %s\n", fl)
		}
	}
	if !rep.OK {
		return f.fail(exitcode.AuditFailure, errors.New("audit FAILED"))
	}
	return exitcode.OK
}

// runTrace records a workload and explains the recording:
//
//	mmu trace record -workload kbuild -cpu 604/185 -config optimized -o trace.json
//	mmu trace summarize trace.json
//	mmu trace summarize -pprof phases.pb.gz trace.json   (open with go tool pprof)
//	mmu trace timeline trace.json
//	mmu trace diff before.json after.json
//	mmu trace dump -format chrome trace.json > trace.chrome.json   (load in Perfetto)
//
// record runs a workload (lmbench, kbuild, or the synthetic stress
// generators) on a freshly booted simulated machine with the mmtrace
// event ring, the phase ledger and its interval sampler on, and saves
// the capture. summarize prints per-event-class cycle histograms,
// reconciles the trace totals against the hwmon counter deltas (exit
// status 5 on mismatch), reports hottest pages and TLB-miss
// inter-arrival times, then each section's phase profile with derived
// rates and attribution; with -pprof it also writes the aggregate
// phase profile in pprof format. timeline prints the per-interval
// view: dominant phase, share, fault pressure per sample. diff compares
// two recordings event class by class, then phase by phase. dump
// prints the events as JSON lines or a Chrome trace. Every view is a
// pure function of the recording bytes: the same file renders
// identically at any -j.
func runTrace(args []string, stdout, stderr io.Writer) int {
	return dispatch("mmu trace", []command{
		{"record", "record a workload with the event ring and phase ledger on", traceRecord},
		{"summarize", "cycle histograms, counter reconciliation, hot pages, phase profile", traceSummarize},
		{"timeline", "per-interval dominant phase and fault pressure", view("mmu trace timeline", 1, func(w io.Writer, recs []*tracerec.Recording) {
			tracerec.Timeline(w, recs[0])
		})},
		{"diff", "compare two recordings event class by class and phase by phase", view("mmu trace diff", 2, func(w io.Writer, recs []*tracerec.Recording) {
			tracerec.Diff(w, recs[0], recs[1])
		})},
		{"dump", "print the events as JSON lines or a Chrome trace", traceDump},
	}, args, stdout, stderr)
}

func traceRecord(args []string, stdout, stderr io.Writer) int {
	f := newFlags("mmu trace record", stderr)
	f.cpu("604/185")
	f.config()
	f.jobs()
	var opts tracerec.RecordOptions
	var (
		workload = f.String("workload", "lmbench", "workload: lmbench, kbuild, stress")
		iters    = f.iters()
		out      = f.out("trace.json", "output file")
	)
	f.IntVar(&opts.Capacity, "capacity", 0, "trace ring capacity in events (0 = default)")
	f.IntVar(&opts.SampleInterval, "interval", 0, "sampler period in simulated cycles (0 = default)")
	if code, ok := f.parse(args); !ok {
		return code
	}
	if opts.Capacity < 0 || opts.SampleInterval < 0 {
		return f.fail(exitcode.Usage, fmt.Errorf("-capacity %d, -interval %d: neither may be negative", opts.Capacity, opts.SampleInterval))
	}
	opts.Workload, opts.CPU, opts.Config, opts.Iters = *workload, *f.cpuName, *f.cfgName, *iters
	rec, err := tracerec.Record(context.Background(), opts)
	if errors.Is(err, tracerec.ErrUnknownWorkload) {
		return f.fail(exitcode.Usage, err)
	}
	if err != nil {
		return f.fail(exitcode.Internal, err)
	}
	if err := rec.Save(*out); err != nil {
		return f.fail(exitcode.Internal, err)
	}
	var events, eventsDropped, samples, samplesDropped uint64
	for _, s := range rec.Sections {
		events, eventsDropped = events+s.Emitted, eventsDropped+s.Dropped
		samples, samplesDropped = samples+uint64(len(s.Telemetry.Samples)), samplesDropped+s.Telemetry.Dropped
	}
	fmt.Fprintf(stdout, "recorded %s: %d sections, %d events (%d dropped by the ring), %d samples (%d dropped) -> %s\n",
		*workload, len(rec.Sections), events, eventsDropped, samples, samplesDropped, *out)
	return exitcode.OK
}

// view returns a subcommand of name that takes no flags of its own,
// loads the n recordings its arguments name, and renders them.
func view(name string, n int, render func(io.Writer, []*tracerec.Recording)) func(args []string, stdout, stderr io.Writer) int {
	return func(args []string, stdout, stderr io.Writer) int {
		f := newFlags(name, stderr)
		recs, code, ok := f.load(args, n)
		if ok {
			render(stdout, recs)
		}
		return code
	}
}

// load parses f and loads the n recordings its arguments name. ok is
// false when the subcommand must stop and exit with code.
func (f *flagSet) load(args []string, n int) (recs []*tracerec.Recording, code int, ok bool) {
	if code, ok := f.parse(args); !ok {
		return nil, code, false
	}
	if f.NArg() != n {
		return nil, f.fail(exitcode.Usage, fmt.Errorf("needs exactly %d recording file(s)", n)), false
	}
	for _, path := range f.Args() {
		rec, err := tracerec.Load(path)
		if err != nil {
			return nil, f.fail(exitcode.Internal, err), false
		}
		recs = append(recs, rec)
	}
	return recs, exitcode.OK, true
}

func traceDump(args []string, stdout, stderr io.Writer) int {
	f := newFlags("mmu trace dump", stderr)
	// The format is checked as the flag is parsed, before the recording
	// is read, so a bad -format is a usage error whatever the file.
	write := (*tracerec.Recording).WriteJSONL
	f.Func("format", "output format: jsonl (the default) or chrome", func(s string) error {
		switch s {
		case "jsonl":
			write = (*tracerec.Recording).WriteJSONL
		case "chrome":
			write = (*tracerec.Recording).WriteChromeTrace
		default:
			return fmt.Errorf("unknown dump format %q (want jsonl or chrome)", s)
		}
		return nil
	})
	recs, code, ok := f.load(args, 1)
	if !ok {
		return code
	}
	if err := write(recs[0], stdout); err != nil {
		return f.fail(exitcode.Internal, err)
	}
	return exitcode.OK
}

func traceSummarize(args []string, stdout, stderr io.Writer) int {
	f := newFlags("mmu trace summarize", stderr)
	topN := f.Int("top", 10, "how many hottest pages to list")
	pprofOut := f.String("pprof", "", "also write the aggregate phase profile in pprof format to this file")
	recs, code, ok := f.load(args, 1)
	if !ok {
		return code
	}
	mismatches := tracerec.Summarize(stdout, recs[0], *topN)
	if *pprofOut != "" {
		if err := createFile(*pprofOut, recs[0].WriteProfile); err != nil {
			return f.fail(exitcode.Internal, err)
		}
		fmt.Fprintf(stdout, "wrote pprof profile -> %s\n", *pprofOut)
	}
	if mismatches > 0 {
		// A failed trace↔counter reconciliation is an audit failure, not
		// a harness error: the run completed but its books don't balance.
		return f.fail(exitcode.AuditFailure, fmt.Errorf("%d reconciliation mismatches", mismatches))
	}
	return exitcode.OK
}
