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
	"mmutricks/internal/telemetry"
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

// runStat records and analyzes cycle-exact phase telemetry:
//
//	mmu stat record -workload kbuild -cpu 604/185 -config optimized -o stat.json
//	mmu stat timeline stat.json
//	mmu stat phases stat.json
//	mmu stat phases -pprof phases.pb.gz stat.json   (open with go tool pprof)
//	mmu stat diff before.json after.json
//
// record runs a workload on a freshly booted simulated machine with
// the phase ledger and interval sampler enabled (tracing stays on too,
// so the file is also a valid trace recording) and saves the capture.
// timeline prints the per-interval view — dominant phase, share, fault
// pressure per sample. phases prints the end-of-run phase profile with
// derived rates, attribution, and cost percentiles; with -pprof it also
// writes the aggregate profile in pprof format. diff compares two
// recordings phase by phase. Every view is a pure function of the
// recording bytes: the same file renders identically at any -j.
func runStat(args []string, stdout, stderr io.Writer) int {
	return dispatch("mmu stat", []command{
		{"record", "record a workload with the phase ledger and sampler on", record("mmu stat", true)},
		{"timeline", "per-interval dominant phase and fault pressure", view("mmu stat timeline", 1, func(w io.Writer, recs []*tracerec.Recording) {
			tracerec.StatTimeline(w, recs[0])
		})},
		{"phases", "end-of-run phase profile", statPhases},
		{"diff", "compare two recordings phase by phase", view("mmu stat diff", 2, func(w io.Writer, recs []*tracerec.Recording) {
			tracerec.StatDiff(w, recs[0], recs[1])
		})},
	}, args, stdout, stderr)
}

// runTrace records and analyzes MMU event traces:
//
//	mmu trace record -workload lmbench -cpu 604/185 -config optimized -o trace.json
//	mmu trace dump -format jsonl trace.json
//	mmu trace dump -format chrome trace.json > trace.chrome.json   (load in Perfetto)
//	mmu trace summarize trace.json
//	mmu trace diff before.json after.json
//
// record runs a workload (lmbench, kbuild, or the synthetic stress
// generators) on a freshly booted simulated machine with the mmtrace
// ring buffer enabled and saves the capture. summarize prints
// per-event-class cycle histograms, reconciles the trace totals
// against the hwmon counter deltas (exit status 5 on mismatch), and
// reports hottest pages and TLB-miss inter-arrival times.
func runTrace(args []string, stdout, stderr io.Writer) int {
	return dispatch("mmu trace", []command{
		{"record", "record a workload with the event ring on", record("mmu trace", false)},
		{"dump", "print the events as JSON lines or a Chrome trace", traceDump},
		{"summarize", "cycle histograms, counter reconciliation, hot pages", traceSummarize},
		{"diff", "compare two recordings event class by class", view("mmu trace diff", 2, func(w io.Writer, recs []*tracerec.Recording) {
			tracerec.Diff(w, recs[0], recs[1])
		})},
	}, args, stdout, stderr)
}

// record returns the record subcommand of tool: "mmu stat" records
// with telemetry on, "mmu trace" without.
func record(tool string, telemetry bool) func(args []string, stdout, stderr io.Writer) int {
	return func(args []string, stdout, stderr io.Writer) int {
		f := newFlags(tool+" record", stderr)
		f.cpu("604/185")
		f.config()
		f.jobs()
		opts := tracerec.RecordOptions{Telemetry: telemetry}
		var (
			workload = f.String("workload", "lmbench", "workload: lmbench, kbuild, stress")
			iters    = f.iters()
			out      *string
		)
		if telemetry {
			f.IntVar(&opts.SampleInterval, "interval", 0, "sampler period in simulated cycles (0 = default)")
			f.IntVar(&opts.SampleCapacity, "samples", 0, "sample-ring capacity (0 = default)")
			out = f.out("stat.json", "output file")
		} else {
			f.IntVar(&opts.Capacity, "capacity", 0, "trace ring capacity in events (0 = default)")
			out = f.out("trace.json", "output file")
		}
		if code, ok := f.parse(args); !ok {
			return code
		}
		opts.Workload, opts.CPU, opts.Config, opts.Iters = *workload, *f.cpuName, *f.cfgName, *iters
		rec, err := tracerec.Record(context.Background(), opts)
		if err != nil {
			return f.fail(exitcode.Internal, err)
		}
		if err := rec.Save(*out); err != nil {
			return f.fail(exitcode.Internal, err)
		}
		what, n, dropped := "events", uint64(0), uint64(0)
		if telemetry {
			what = "samples"
		}
		for _, s := range rec.Sections {
			if !telemetry {
				n, dropped = n+s.Emitted, dropped+s.Dropped
			} else if s.Telemetry != nil {
				n, dropped = n+uint64(len(s.Telemetry.Samples)), dropped+s.Telemetry.Dropped
			}
		}
		fmt.Fprintf(stdout, "recorded %s: %d sections, %d %s (%d dropped by the ring) -> %s\n",
			*workload, len(rec.Sections), n, what, dropped, *out)
		return exitcode.OK
	}
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

func statPhases(args []string, stdout, stderr io.Writer) int {
	f := newFlags("mmu stat phases", stderr)
	pprofOut := f.String("pprof", "", "also write the aggregate phase profile in pprof format to this file")
	recs, code, ok := f.load(args, 1)
	if !ok {
		return code
	}
	rec := recs[0]
	tracerec.StatPhases(stdout, rec)
	if *pprofOut == "" {
		return exitcode.OK
	}
	if !rec.HasTelemetry() {
		return f.fail(exitcode.Internal, errors.New("recording has no telemetry — re-record with mmu stat record"))
	}
	// Aggregate phase cycles across sections; the name vector of the
	// first section names the indices.
	names := rec.Sections[0].Telemetry.PhaseNames
	cycles := make([]uint64, len(names))
	for _, s := range rec.Sections {
		for i, c := range s.Telemetry.PhaseCycles {
			if i < len(cycles) {
				cycles[i] += c
			}
		}
	}
	out, err := os.Create(*pprofOut)
	if err != nil {
		return f.fail(exitcode.Internal, err)
	}
	if err := telemetry.WriteProfileData(out, names, cycles, rec.Meta.MHz); err != nil {
		out.Close()
		return f.fail(exitcode.Internal, err)
	}
	if err := out.Close(); err != nil {
		return f.fail(exitcode.Internal, err)
	}
	fmt.Fprintf(stdout, "wrote pprof profile -> %s\n", *pprofOut)
	return exitcode.OK
}

func traceDump(args []string, stdout, stderr io.Writer) int {
	f := newFlags("mmu trace dump", stderr)
	format := f.String("format", "jsonl", "output format: jsonl, chrome")
	recs, code, ok := f.load(args, 1)
	if !ok {
		return code
	}
	var err error
	switch *format {
	case "jsonl":
		err = recs[0].WriteJSONL(stdout)
	case "chrome":
		err = recs[0].WriteChromeTrace(stdout)
	default:
		return f.fail(exitcode.Usage, fmt.Errorf("unknown dump format %q (want jsonl or chrome)", *format))
	}
	if err != nil {
		return f.fail(exitcode.Internal, err)
	}
	return exitcode.OK
}

func traceSummarize(args []string, stdout, stderr io.Writer) int {
	f := newFlags("mmu trace summarize", stderr)
	topN := f.Int("top", 10, "how many hottest pages to list")
	recs, code, ok := f.load(args, 1)
	if !ok {
		return code
	}
	if mismatches := tracerec.Summarize(stdout, recs[0], *topN); mismatches > 0 {
		// A failed trace↔counter reconciliation is an audit failure, not
		// a harness error: the run completed but its books don't balance.
		return f.fail(exitcode.AuditFailure, fmt.Errorf("%d reconciliation mismatches", mismatches))
	}
	return exitcode.OK
}
