// Command mmubench is the simulator's benchmark: end-to-end host time,
// simulation rate and memory for three workloads, and a per-layer
// breakdown from a separate traced pass. Host times are normalized by
// the host's speed, measured all through each pass (refmodel.go).
// bench/run.sh builds it and mmureport, with the checked-in PGO
// profile, and runs it; see bench/README.md.
//
// Usage:
//
//	mmubench run --workload W [--seed N] [--seconds S] [--trace 0|1] [-o out.jsonl]
//	mmubench all [-seed N] [-seconds S] [-o out.jsonl]
//	mmubench compare parent.jsonl change.jsonl
//	mmubench golden > bench/mmubench/golden.json
//
// run prints every metric with its unit, median, quartiles and sample
// count, then, as its last line, one JSON object: correct, attempted,
// failed, and the metrics' medians. It exits 1 when any pass failed or
// an output differed from the committed checksums.
package main

import (
	"debug/buildinfo"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// golden holds the committed checksums: the sha256 of mmureport
// -all -quick's stdout, and each synthetic workload's checksum for the
// default seed and a hold-out seed.
type golden struct {
	Report    string                       `json:"report_sha256"`
	Synthetic map[string]map[string]string `json:"synthetic"`
}

//go:embed golden.json
var goldenJSON []byte

// runSeconds is how long a run's timed passes run by default, the
// run_seconds of BENCHMARK.json.
const runSeconds = 35

// goldenSeeds are the seeds golden.json pins: the default and a
// hold-out.
var goldenSeeds = []uint64{1, 2}

func main() {
	// Match mmureport's GC target so in-process runs of the simulator
	// behave as the harness does.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(300)
	}
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "all":
		err = cmdAll(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "golden":
		err = cmdGolden()
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmubench: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mmubench run|all|compare|golden [flags]; see bench/README.md")
	os.Exit(2)
}

// host is the record every output carries.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	// PGO reports that both mmubench and mmureport were built with a
	// profile.
	PGO bool `json:"pgo"`
}

func hostRecord(commit, mmureport string) host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit}
	self, _ := debug.ReadBuildInfo()
	other, err := buildinfo.ReadFile(mmureport)
	h.PGO = err == nil && pgoSetting(self) && pgoSetting(other)
	return h
}

func pgoSetting(bi *debug.BuildInfo) bool {
	if bi == nil {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-pgo" && s.Value != "" {
			return true
		}
	}
	return false
}

// sibling is a binary next to this executable (run.sh builds both
// into one directory).
func sibling(name string) string {
	exe, err := os.Executable()
	if err != nil {
		return name
	}
	return filepath.Join(filepath.Dir(exe), name)
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is one line of an -o file: a result with what produced it.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Host     host   `json:"host"`
	result
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", runSeconds, "how long the timed passes run")
	trace := fs.Int("trace", 0, "1: run the traced pass and report per-layer metrics")
	out := fs.String("o", "", "append the result as one JSON line to this file")
	commit := fs.String("commit", "unknown", "commit recorded in the host record")
	fs.Parse(args)
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "mmubench run: need --workload one of %v and --trace 0 or 1\n", workloadNames())
		os.Exit(2)
	}
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	ref, err := newRefModel()
	if err != nil {
		return err
	}
	e := &env{mmureport: sibling("mmureport"), sz: full, golden: &g, ref: ref}
	h := hostRecord(*commit, e.mmureport)
	fmt.Printf("host: nproc=%d gomaxprocs=%d go=%s commit=%s pgo=%v\n", h.NProc, h.GOMAXPROCS, h.Go, h.Commit, h.PGO)
	fmt.Printf("workload: %s seed=%d trace=%d\n", w.name, *seed, *trace)
	o, runErr := measure(w, e, *seed, *seconds, *trace == 1)
	res := o.result()
	printMetrics(os.Stdout, o)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if *out != "" {
		if err := appendRecord(*out, record{w.name, *seed, *trace, h, res}); err != nil {
			return err
		}
	}
	return runErr
}

func (o outcome) result() result {
	r := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]value{}}
	for _, m := range o.metrics {
		r.Metrics[m.name] = value{m.s.Median, m.unit}
	}
	return r
}

func printMetrics(w io.Writer, o outcome) {
	for _, m := range append(o.metrics, o.notes...) {
		fmt.Fprintf(w, "%-40s %-10s median %-12.6g q1 %-12.6g q3 %-12.6g n %d\n",
			m.name, m.unit, m.s.Median, m.s.Q1, m.s.Q3, m.s.N)
	}
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// cmdAll runs every workload, untraced and then traced, each in its
// own child process, one at a time.
func cmdAll(args []string) error {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", runSeconds, "how long each run's timed passes run")
	out := fs.String("o", "", "append each result as one JSON line to this file")
	commit := fs.String("commit", "unknown", "commit recorded in the host record")
	fs.Parse(args)
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.Command(exe, "run", "--workload", w.name,
				"--seed", strconv.FormatUint(*seed, 10), "--seconds", fmt.Sprint(*seconds),
				"--trace", strconv.Itoa(trace), "-o", *out, "-commit", *commit)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = append(failed, fmt.Sprintf("%s trace %d: %v", w.name, trace, err))
			}
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed runs: %s", strings.Join(failed, "; "))
	}
	return nil
}

// cmdGolden prints golden.json for the current simulator.
func cmdGolden() error {
	run, err := runRegistry("")
	if err != nil {
		return err
	}
	if run.failed > 0 {
		return fmt.Errorf("%d experiments FAILED", run.failed)
	}
	g := golden{Report: sha([]byte(run.text)), Synthetic: map[string]map[string]string{}}
	for _, w := range workloads {
		if w.synth == nil {
			continue
		}
		g.Synthetic[w.name] = map[string]string{}
		for _, seed := range goldenSeeds {
			p, err := w.synth.run(seed, full, nil, nil)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			g.Synthetic[w.name][fmt.Sprint(seed)] = p.sum
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
