package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"

	"mmutricks/bench/stats"
)

// spec is the part of BENCHMARK.json compare needs.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// runs is one side of a comparison: the untraced runs of an -o file.
type runs struct {
	// values holds, per workload and end-to-end metric, one value per
	// run in file order; an incorrect run is NaN, so run i of one side
	// still pairs with run i of the other.
	values            map[string]map[string][]float64
	attempted, failed map[string]int // per workload, summed over runs
}

func readRuns(path string, sp spec) (runs, error) {
	rs := runs{values: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	f, err := os.Open(path)
	if err != nil {
		return rs, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return rs, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace != 0 {
			continue
		}
		if rs.values[r.Workload] == nil {
			rs.values[r.Workload] = map[string][]float64{}
		}
		rs.attempted[r.Workload] += r.Attempted
		rs.failed[r.Workload] += r.Failed
		for _, m := range sp.EndToEnd {
			v, ok := r.Metrics[m.Name]
			if !r.Correct || !ok {
				v.Value = math.NaN()
			}
			rs.values[r.Workload][m.Name] = append(rs.values[r.Workload][m.Name], v.Value)
		}
	}
	return rs, sc.Err()
}

// cmdCompare judges the change's runs against the parent's for every
// end-to-end metric and workload, with the bounds in BENCHMARK.json.
// It fails when any pairing regresses.
func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark definition")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: mmubench compare [-spec BENCHMARK.json] parent.jsonl change.jsonl")
		os.Exit(2)
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		return err
	}
	parent, err := readRuns(fs.Arg(0), sp)
	if err != nil {
		return err
	}
	change, err := readRuns(fs.Arg(1), sp)
	if err != nil {
		return err
	}
	summary := func(xs []float64) string {
		s := stats.Summarize(xs)
		return fmt.Sprintf("%.6g [%.6g %.6g] n=%d", s.Median, s.Q1, s.Q3, s.N)
	}
	regressions := 0
	row := "%-16s %-22s %-40s %-40s %s\n"
	fmt.Printf(row, "workload", "metric", "parent median [q1 q3]", "change median [q1 q3]", "verdict")
	for _, w := range sp.Workloads {
		// A larger share of failed passes is a regression whatever the
		// timings say.
		fa, aa := parent.failed[w.Name], parent.attempted[w.Name]
		fb, ab := change.failed[w.Name], change.attempted[w.Name]
		v := stats.NoChange
		switch {
		case aa == 0 || ab == 0:
			v = stats.Unresolved
		case fb*aa > fa*ab:
			v = stats.Regression
			regressions++
		}
		fmt.Printf(row, w.Name, "failed/attempted", fmt.Sprintf("%d/%d", fa, aa), fmt.Sprintf("%d/%d", fb, ab), v)
		for _, m := range sp.EndToEnd {
			a, b := parent.values[w.Name][m.Name], change.values[w.Name][m.Name]
			v := stats.Compare(a, b, m.Better == "higher", m.Bound)
			if v == stats.Regression {
				regressions++
			}
			fmt.Printf(row, w.Name, m.Name, summary(a), summary(b), v)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d regressions", regressions)
	}
	return nil
}
