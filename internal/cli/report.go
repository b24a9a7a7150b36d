package cli

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"mmutricks/internal/exitcode"
	"mmutricks/internal/report"
)

// runReport regenerates the paper's tables and figures:
//
//	mmu report -list                 list all experiments
//	mmu report -experiment table2    run one experiment
//	mmu report -all                  run everything
//	mmu report -all -full            run everything at full scale
//	mmu report -all -j 8             run everything on 8 workers
//	mmu report -benchjson out.json   benchmark the harness itself
//
// Each experiment prints a [measured] grid and, where the paper gives
// directly comparable numbers, a [paper] grid next to it. The -all
// output is byte-identical at every -j: results are gathered by index
// and rendered in registry order.
func runReport(args []string, stdout, stderr io.Writer) int {
	f := newFlags("mmu report", stderr)
	f.profiles()
	var (
		list      = f.Bool("list", false, "list experiments and exit")
		exp       = f.String("experiment", "", "run a single experiment by id")
		all       = f.Bool("all", false, "run every experiment")
		full      = f.Bool("full", false, "run at full scale (slower, EXPERIMENTS.md sizes)")
		quick     = f.Bool("quick", false, "run at quick scale (the default; explicit for scripts)")
		j         = f.jobs()
		benchjson = f.String("benchjson", "", "benchmark the harness (sequential vs -j) and write JSON to this file")
	)
	if code, ok := f.parse(args); !ok {
		return code
	}
	if *quick && *full {
		return f.fail(exitcode.Usage, errors.New("-quick and -full are mutually exclusive"))
	}
	scale := report.Quick
	if *full {
		scale = report.Full
	}

	switch {
	case *list:
		for _, e := range report.All() {
			fmt.Fprintf(stdout, "%-20s %s\n", e.ID, e.Title)
		}
	case *benchjson != "":
		return benchHarness(f, stdout, *benchjson, scale, *j)
	case *exp != "":
		e, ok := report.Find(*exp)
		if !ok {
			return f.fail(exitcode.Usage, fmt.Errorf("unknown experiment %q (try -list)", *exp))
		}
		r := report.RunOne(context.Background(), e, scale)
		if r.Err != nil {
			fmt.Fprintf(stderr, "mmu report: %v\n", r.Err)
		}
		fmt.Fprintln(stdout, r.Table.Render())
		return exitcode.ForFailReasons([]string{r.FailReason})
	case *all:
		var reasons []string
		for _, r := range report.RunAll(context.Background(), scale, *j) {
			if r.Err != nil {
				fmt.Fprintf(stderr, "mmu report: %v\n", r.Err)
				reasons = append(reasons, r.FailReason)
			}
			// Panicked experiments still render — as a one-cell
			// FAILED(<reason>) grid — so the output keeps every registry
			// entry in order even when one degrades. The exit code
			// separates the failure classes: FAILED(panic) exits 4,
			// FAILED(cycle-budget) exits 3 (panic dominates when both
			// appear), anything else nonzero exits 1.
			fmt.Fprintln(stdout, r.Table.Render())
		}
		return exitcode.ForFailReasons(reasons)
	default:
		f.Usage()
		return exitcode.Usage
	}
	return exitcode.OK
}

// benchExperiment is one registry entry's cost in the sequential pass,
// where per-experiment sim-cycle attribution is exact.
type benchExperiment struct {
	ID        string  `json:"id"`
	WallMS    float64 `json:"wall_ms"`
	SimCycles uint64  `json:"sim_cycles"`
	// CounterChecksum fingerprints the experiment's rendered grid — the
	// hwmon counters and every value derived from them. It is
	// deterministic (the harness guarantees byte-identical output), so
	// any drift in simulated counters shows up as a checksum change
	// even when wall times move with the host.
	CounterChecksum string `json:"counter_checksum"`
}

type benchDoc struct {
	Scale       string `json:"scale"`
	Parallelism int    `json:"parallelism"`
	HostCPUs    int    `json:"host_cpus"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	// SimCyclesPerSec is the aggregate simulation rate of the
	// sequential pass: total simulated cycles charged divided by wall
	// time. It is the harness's throughput figure of merit — unlike
	// wall time alone it scales out differences in experiment mix.
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
	SequentialMS    float64 `json:"sequential_ms"`
	ParallelMS      float64 `json:"parallel_ms"`
	// Speedup is sequential over parallel wall time. It is omitted on a
	// host with fewer than two CPUs or GOMAXPROCS below two, where the
	// parallel pass cannot run in parallel and the ratio says nothing
	// about scaling.
	Speedup         *float64          `json:"speedup,omitempty"`
	IdenticalOutput bool              `json:"identical_output"`
	Experiments     []benchExperiment `json:"experiments"`
}

// setSpeedup records the parallel speedup if the host could run the
// parallel pass in parallel.
func (d *benchDoc) setSpeedup(seq, par time.Duration) {
	if d.HostCPUs >= 2 && d.GoMaxProcs >= 2 {
		s := seq.Seconds() / par.Seconds()
		d.Speedup = &s
	}
}

// benchHarness times the full registry once sequentially (exact
// per-experiment attribution) and once on j workers, checks the two
// rendered outputs are byte-identical, and writes the comparison as
// JSON.
func benchHarness(f *flagSet, stdout io.Writer, path string, scale report.Scale, j int) int {
	scaleName := "quick"
	if scale == report.Full {
		scaleName = "full"
	}

	seqStart := time.Now()
	seq := report.RunAll(context.Background(), scale, 1)
	seqWall := time.Since(seqStart)

	parStart := time.Now()
	par := report.RunAll(context.Background(), scale, j)
	parWall := time.Since(parStart)

	doc := benchDoc{
		Scale:           scaleName,
		Parallelism:     j,
		HostCPUs:        runtime.NumCPU(),
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		SequentialMS:    float64(seqWall.Microseconds()) / 1000,
		ParallelMS:      float64(parWall.Microseconds()) / 1000,
		IdenticalOutput: renderAll(seq) == renderAll(par),
	}
	doc.setSpeedup(seqWall, parWall)
	var totalCycles uint64
	for _, r := range seq {
		if r.Err != nil {
			return f.fail(exitcode.Internal, r.Err)
		}
		totalCycles += r.SimCycles
		doc.Experiments = append(doc.Experiments, benchExperiment{
			ID:              r.Experiment.ID,
			WallMS:          float64(r.Wall.Microseconds()) / 1000,
			SimCycles:       r.SimCycles,
			CounterChecksum: r.Table.CounterChecksum(),
		})
	}
	doc.SimCyclesPerSec = float64(totalCycles) / seqWall.Seconds()
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return f.fail(exitcode.Internal, err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return f.fail(exitcode.Internal, err)
	}
	speedup := fmt.Sprintf("no speedup: %d host CPUs, GOMAXPROCS %d", doc.HostCPUs, doc.GoMaxProcs)
	if doc.Speedup != nil {
		speedup = fmt.Sprintf("%.2fx", *doc.Speedup)
	}
	fmt.Fprintf(stdout, "harness: sequential %.1fms, -j %d %.1fms (%s), output identical: %v\n",
		doc.SequentialMS, j, doc.ParallelMS, speedup, doc.IdenticalOutput)
	if !doc.IdenticalOutput {
		return exitcode.Internal
	}
	return exitcode.OK
}

func renderAll(rs []report.RunResult) string {
	var out string
	for _, r := range rs {
		if r.Table != nil {
			out += r.Table.Render() + "\n"
		}
	}
	return out
}
