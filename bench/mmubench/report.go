package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mmutricks/bench/stats"
	"mmutricks/internal/clock"
	"mmutricks/internal/report"
)

// registryRun is one in-process run of the report registry.
type registryRun struct {
	text   string             // the bytes mmureport prints for the same run
	ids    []string           // the experiments run, in order
	wallMS map[string]float64 // each experiment's RunResult.Wall
	cycles uint64             // simulated cycles charged by the run
	tables []*report.Table
	failed int // experiments that rendered as FAILED
}

// runRegistry runs the registry as mmureport -all -quick -j 1 does,
// with report.RunAll. A non-empty exp runs that one experiment instead
// (the smoke test's tiny size).
func runRegistry(exp string) (registryRun, error) {
	c0 := clock.MeterNow()
	var results []report.RunResult
	if exp == "" {
		results = report.RunAll(context.Background(), report.Quick, 1)
	} else {
		e, ok := report.Find(exp)
		if !ok {
			return registryRun{}, fmt.Errorf("unknown experiment %q", exp)
		}
		report.SetParallelism(1)
		results = []report.RunResult{report.RunOne(context.Background(), e, report.Quick)}
	}
	r := registryRun{cycles: clock.MeterNow() - c0, wallMS: map[string]float64{}}
	var b bytes.Buffer
	for _, res := range results {
		if res.Err != nil {
			r.failed++
		}
		b.WriteString(res.Table.Render())
		b.WriteByte('\n')
		r.tables = append(r.tables, res.Table)
		r.ids = append(r.ids, res.Experiment.ID)
		r.wallMS[res.Experiment.ID] = float64(res.Wall) / 1e6
	}
	r.text = b.String()
	return r, nil
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// reportRunner runs the registry through mmureport, one child process
// per experiment, so that the host's speed can be measured between
// experiments (see speedMeter).
type reportRunner struct {
	bin    string // the mmureport binary
	exp    string // the one experiment to run; "" runs the registry
	golden string // committed stdout sha256; "" skips the check
	ref    *refModel
	ids    []string // the experiments a pass runs, from the warm-up run
	cycles uint64   // simulated cycles of one pass, from the warm-up run
}

// warmup runs the registry in process. Its bytes are the reference
// every pass must print: mmureport -all prints each experiment as
// mmureport -experiment does, one after another.
func (r *reportRunner) warmup() (string, error) {
	run, err := runRegistry(r.exp)
	if err != nil {
		return "", err
	}
	r.ids = run.ids
	r.cycles = run.cycles
	ref := sha([]byte(run.text))
	if run.failed > 0 {
		return ref, fmt.Errorf("%d experiments FAILED in process", run.failed)
	}
	if r.golden != "" && ref != r.golden {
		return ref, fmt.Errorf("report output sha256 %s, committed %s: simulated results changed", ref, r.golden)
	}
	return ref, nil
}

// pass times mmureport -list (the set-up a user pays before any
// experiment runs) and then mmureport -experiment for each experiment
// in turn. Its peak RSS is the largest child's.
func (r *reportRunner) pass() (passResult, error) {
	var p passResult
	t0 := time.Now()
	if _, err := r.child("-list"); err != nil {
		return p, err
	}
	p.setup = time.Since(t0)
	meter := newSpeedMeter(r.ref.slice)
	var out []byte
	for _, id := range r.ids {
		t0 := time.Now()
		c, err := r.child("-experiment", id, "-quick", "-j", "1")
		d := time.Since(t0)
		if err != nil {
			return p, err
		}
		meter.add(d)
		p.wall += d
		p.cpu += c.cpu
		p.rssMB = max(p.rssMB, c.peakMB)
		out = append(out, c.out...)
	}
	p.speed = meter.factor()
	p.cycles = r.cycles
	p.sum = sha(out)
	return p, nil
}

// childRun is what one mmureport process printed and used.
type childRun struct {
	out    []byte
	cpu    time.Duration
	peakMB float64
}

// child runs mmureport with args. It samples the child's peak RSS from
// /proc while the child runs: the child's ru_maxrss would also count
// this process's resident set, which the child shares until it execs.
func (r *reportRunner) child(args ...string) (childRun, error) {
	var out, errb bytes.Buffer
	cmd := exec.Command(r.bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Start(); err != nil {
		return childRun{}, fmt.Errorf("mmureport %s: %w", strings.Join(args, " "), err)
	}
	stop, peak := make(chan struct{}), make(chan float64)
	go func() {
		status := "/proc/" + strconv.Itoa(cmd.Process.Pid) + "/status"
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		hwm := 0.0
		for {
			if mb, err := peakRSSMB(status); err == nil {
				hwm = max(hwm, mb)
			}
			select {
			case <-stop:
				peak <- hwm
				return
			case <-tick.C:
			}
		}
	}()
	err := cmd.Wait()
	close(stop)
	c := childRun{out: out.Bytes(), peakMB: <-peak}
	if err != nil {
		return c, fmt.Errorf("mmureport %s: %v: %s", strings.Join(args, " "), err, errb.Bytes())
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return c, nil
}

// traced runs the registry in process, timing each experiment.
func (r *reportRunner) traced() (passResult, error) {
	t0 := time.Now()
	run, err := runRegistry(r.exp)
	if err != nil {
		return passResult{}, err
	}
	p := passResult{wall: time.Since(t0), sum: sha([]byte(run.text)), registry: &run}
	if run.failed > 0 {
		return p, fmt.Errorf("%d experiments FAILED in process", run.failed)
	}
	return p, nil
}

// paperErrPct is the median, in percent, of |measured-paper|/paper over
// every measured/paper cell pair of the tables that both parse as
// "<number> <unit>" with the same unit.
func paperErrPct(tables []*report.Table) float64 {
	var errs []float64
	for _, t := range tables {
		for i := range t.Paper {
			if i >= len(t.Rows) {
				break
			}
			for j := range t.Paper[i] {
				if j >= len(t.Rows[i]) {
					break
				}
				if e, ok := cellErr(t.Rows[i][j], t.Paper[i][j]); ok {
					errs = append(errs, e)
				}
			}
		}
	}
	return 100 * stats.Summarize(errs).Median
}

// cellErr pairs a measured cell with the paper's: both must be a
// number and a unit, and the units must agree.
func cellErr(measured, paper string) (float64, bool) {
	m, mu, ok := parseCell(measured)
	if !ok {
		return 0, false
	}
	p, pu, ok := parseCell(paper)
	if !ok || pu != mu || p == 0 {
		return 0, false
	}
	d := m - p
	if d < 0 {
		d = -d
	}
	if p < 0 {
		p = -p
	}
	return d / p, true
}

func parseCell(c string) (float64, string, bool) {
	f := strings.Fields(c)
	if len(f) != 2 {
		return 0, "", false
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return 0, "", false
	}
	return v, f[1], true
}
