// Package tracerec records, serializes, and analyzes what one run of
// the simulated kernel did. It sits above the simulation packages:
// internal/mmtrace is the in-machine event ring the hot paths emit
// into, with the phase ledger of internal/telemetry beside it; tracerec
// runs whole workloads with both enabled, snapshots the result into a
// serializable Recording, and implements the summarize, timeline, diff
// and dump views behind `mmu trace`.
package tracerec

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"mmutricks/internal/hwmon"
	"mmutricks/internal/mmtrace"
	"mmutricks/internal/telemetry"
)

// FormatVersion stamps recordings so readers can reject files written
// by an incompatible tool.
const FormatVersion = 1

// Meta describes how a recording was made.
type Meta struct {
	Tool     string `json:"tool"`
	Version  int    `json:"version"`
	Workload string `json:"workload"`
	CPU      string `json:"cpu"`
	Config   string `json:"config"`
	MHz      int    `json:"mhz"`
	Capacity int    `json:"capacity"`
	// Kinds lists every event-kind name the writer knew, so readers
	// can detect vocabulary drift.
	Kinds []string `json:"kinds"`
}

// Ev is one serialized event. EA is hex text so dumps read naturally.
type Ev struct {
	Seq  uint64 `json:"seq"`
	Time uint64 `json:"t"`
	Cost uint64 `json:"cost"`
	Kind string `json:"kind"`
	Task uint32 `json:"task"`
	VSID uint32 `json:"vsid"`
	EA   string `json:"ea"`
	Aux  uint32 `json:"aux,omitempty"`
}

// Section is one traced window — one benchmark of a suite, one kbuild
// run, one generator sweep — with its own machine, so its counters and
// events reconcile independently.
type Section struct {
	Name string `json:"name"`
	// Emitted counts every event of the window; Dropped is how many
	// the ring overwrote (Events holds Emitted-Dropped entries).
	Emitted uint64 `json:"emitted"`
	Dropped uint64 `json:"dropped"`
	// Counters is the hwmon delta over the window, for reconciliation.
	Counters hwmon.Counters `json:"counters"`
	// Hists holds the per-event-class cost histograms, nonzero
	// classes only, keyed by kind name.
	Hists map[string]mmtrace.Hist `json:"hists"`
	// Tasks is the per-task attribution.
	Tasks []mmtrace.TaskStat `json:"tasks,omitempty"`
	// Events is the ring contents, oldest first.
	Events []Ev `json:"events"`
	// Telemetry holds the phase-ledger capture. Load rejects a
	// section without one, so every view may read it.
	Telemetry *TelemetryData `json:"telemetry"`
}

// TelemetryData is one section's serialized phase-ledger capture:
// end-of-run phase totals, the deterministic interval samples, and the
// per-task/per-mm cycle attribution. Phase and counter values are bare
// arrays aligned with the stored name vectors, so the format survives
// vocabulary growth on both axes.
type TelemetryData struct {
	// Interval is the sampler period in simulated cycles.
	Interval uint64 `json:"interval"`
	// PhaseNames names the indices of PhaseCycles, PhaseEnters, and
	// every sample's Phases array.
	PhaseNames  []string `json:"phase_names"`
	PhaseCycles []uint64 `json:"phase_cycles"`
	PhaseEnters []uint64 `json:"phase_enters"`
	// CounterNames names the indices of every sample's Counters array.
	CounterNames []string `json:"counter_names"`
	// Samples is the interval timeline, oldest first; Dropped counts
	// boundary crossings that arrived after the sample ring filled.
	Samples []SampleData `json:"samples,omitempty"`
	Dropped uint64       `json:"dropped"`
	// Tasks and MMs are the per-task and per-address-space attributed
	// cycles, in ID order.
	Tasks []AttrData `json:"tasks,omitempty"`
	MMs   []AttrData `json:"mms,omitempty"`
}

// SampleData is one serialized interval sample: cumulative state at
// the first attribution point at or after Boundary.
type SampleData struct {
	Cycle    uint64   `json:"cycle"`
	Boundary uint64   `json:"boundary"`
	Task     uint32   `json:"task"`
	MM       uint32   `json:"mm"`
	Phases   []uint64 `json:"phases"`
	Counters []uint64 `json:"counters"`
}

// AttrData is one per-task or per-mm attribution row.
type AttrData struct {
	ID     uint32 `json:"id"`
	Cycles uint64 `json:"cycles"`
}

// TelemetryFrom snapshots an enabled phase ledger into its serialized
// form. The caller is expected to have stopped attributing (end of the
// traced window); Sync folds the in-flight span remainder in first.
func TelemetryFrom(p *telemetry.Phases) *TelemetryData {
	p.Sync()
	td := &TelemetryData{
		Interval:     uint64(p.Interval()),
		PhaseNames:   telemetry.PhaseNames(),
		PhaseCycles:  make([]uint64, telemetry.NumPhases),
		PhaseEnters:  make([]uint64, telemetry.NumPhases),
		CounterNames: hwmon.CounterNames(),
		Dropped:      p.Dropped(),
	}
	for _, ph := range telemetry.AllPhases {
		td.PhaseCycles[ph] = uint64(p.Cycles(ph))
		td.PhaseEnters[ph] = p.Enters(ph)
	}
	for _, s := range p.Samples() {
		td.Samples = append(td.Samples, SampleData{
			Cycle:    s.Cycle,
			Boundary: s.Boundary,
			Task:     s.Task,
			MM:       s.MM,
			Phases:   append([]uint64(nil), s.Phases[:]...),
			Counters: s.Counters.Values(),
		})
	}
	for _, row := range p.TaskAttribution() {
		td.Tasks = append(td.Tasks, AttrData{ID: row.ID, Cycles: row.Cycles})
	}
	for _, row := range p.MMAttribution() {
		td.MMs = append(td.MMs, AttrData{ID: row.ID, Cycles: row.Cycles})
	}
	return td
}

// Recording is a full capture: metadata plus one section per traced
// window.
type Recording struct {
	Meta     Meta      `json:"meta"`
	Sections []Section `json:"sections"`
}

// SectionFrom snapshots a tracer and its counter delta into a Section.
func SectionFrom(name string, tr *mmtrace.Tracer, delta hwmon.Counters) Section {
	s := Section{
		Name:     name,
		Emitted:  tr.Emitted(),
		Dropped:  tr.Dropped(),
		Counters: delta,
		Hists:    map[string]mmtrace.Hist{},
	}
	hists := tr.Hists()
	for k := mmtrace.Kind(0); k < mmtrace.NumKinds; k++ {
		if hists[k].Count > 0 {
			s.Hists[k.String()] = hists[k]
		}
	}
	s.Tasks = tr.TaskStats()
	seq := tr.Dropped()
	for _, e := range tr.Events() {
		s.Events = append(s.Events, Ev{
			Seq:  seq,
			Time: uint64(e.Time),
			Cost: uint64(e.Cost),
			Kind: e.Kind.String(),
			Task: e.Task,
			VSID: uint32(e.VSID),
			EA:   fmt.Sprintf("%#x", uint32(e.EA)),
			Aux:  e.Aux,
		})
		seq++
	}
	return s
}

// KindNames returns every kind name in Kind order.
func KindNames() []string {
	names := make([]string, mmtrace.NumKinds)
	for k := mmtrace.Kind(0); k < mmtrace.NumKinds; k++ {
		names[k] = k.String()
	}
	return names
}

// Write serializes the recording as indented JSON. Output is
// byte-deterministic: map keys sort, and everything else is
// slice-ordered.
func (r *Recording) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(r)
}

// Save writes the recording to a file.
func (r *Recording) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a recording back. It rejects a file another tool wrote
// and one with a section that lacks the phase-ledger capture (recorded
// before every recording carried it).
func Load(path string) (*Recording, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Recording
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("tracerec: %s: %w", path, err)
	}
	if r.Meta.Tool != "mmutrace" || r.Meta.Version != FormatVersion {
		return nil, fmt.Errorf("tracerec: %s: not an mmutrace v%d recording (tool %q version %d)",
			path, FormatVersion, r.Meta.Tool, r.Meta.Version)
	}
	for _, s := range r.Sections {
		if s.Telemetry == nil {
			return nil, fmt.Errorf("tracerec: %s: section %s has no phase telemetry; re-record it with mmu trace record",
				path, s.Name)
		}
	}
	return &r, nil
}

// HistArray rebuilds the dense per-kind array mmtrace.Reconcile wants.
func (s *Section) HistArray() *[mmtrace.NumKinds]mmtrace.Hist {
	var h [mmtrace.NumKinds]mmtrace.Hist
	for name, v := range s.Hists { //mmutricks:nondet-ok each write lands at its fixed kind index; order cannot show
		if k, ok := mmtrace.KindByName(name); ok {
			h[k] = v
		}
	}
	return &h
}

// sortedHistNames returns the section's nonzero kind names in Kind
// order (stable across runs; map iteration is not).
func (s *Section) sortedHistNames() []string {
	names := make([]string, 0, len(s.Hists))
	for name := range s.Hists { //mmutricks:nondet-ok collection order is erased by the Kind-order sort below
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		a, _ := mmtrace.KindByName(names[i])
		b, _ := mmtrace.KindByName(names[j])
		return a < b
	})
	return names
}
