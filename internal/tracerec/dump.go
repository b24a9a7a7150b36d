package tracerec

import (
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSONL streams the recording as JSON Lines: a meta object first,
// then one object per event (annotated with its section), oldest first
// within each section. The format greps and pipes well.
func (r *Recording) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(struct {
		Meta Meta `json:"meta"`
	}{r.Meta}); err != nil {
		return err
	}
	type line struct {
		Section string `json:"section"`
		Ev
	}
	for _, s := range r.Sections {
		for _, e := range s.Events {
			if err := enc.Encode(line{Section: s.Name, Ev: e}); err != nil {
				return err
			}
		}
	}
	return nil
}

// chromeEvent is one Chrome trace-event ("X" = complete event). The
// format is what Perfetto and chrome://tracing load: ts/dur in
// microseconds, pid/tid grouping the timeline rows.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  uint32         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeMeta is a trace-event metadata record (process names).
type chromeMeta struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Args map[string]any `json:"args"`
}

// chromeCounter is a counter-track sample ("C" event): Perfetto draws
// one stacked area chart per name from the args values.
type chromeCounter struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Args map[string]any `json:"args"`
}

// WriteChromeTrace writes the recording in Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Each
// section becomes a process (pid = section index), each task a thread;
// an event spans [Time-Cost, Time] converted to microseconds at the
// recorded clock rate.
func (r *Recording) WriteChromeTrace(w io.Writer) error {
	mhz := float64(r.Meta.MHz)
	if mhz == 0 {
		mhz = 1
	}
	us := func(cycles uint64) float64 { return float64(cycles) / mhz }

	out := struct {
		TraceEvents []any  `json:"traceEvents"`
		DisplayUnit string `json:"displayTimeUnit"`
	}{DisplayUnit: "ns"}
	for pid, s := range r.Sections {
		out.TraceEvents = append(out.TraceEvents, chromeMeta{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": fmt.Sprintf("%s [%s/%s]", s.Name, r.Meta.CPU, r.Meta.Config)},
		})
		for _, e := range s.Events {
			args := map[string]any{"seq": e.Seq, "ea": e.EA, "vsid": e.VSID}
			if e.Aux != 0 {
				args["aux"] = e.Aux
			}
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: e.Kind,
				Ph:   "X",
				Ts:   us(e.Time - e.Cost),
				Dur:  us(e.Cost),
				Pid:  pid,
				Tid:  e.Task,
				Args: args,
			})
		}
		// Telemetry samples become counter tracks: per-interval phase
		// cycle deltas (a stacked where-did-the-time-go chart) and the
		// fault rate, on the same timebase as the event spans.
		td := s.Telemetry
		prev := make([]uint64, len(td.PhaseNames))
		var prevMinor, prevMajor uint64
		for _, smp := range td.Samples {
			phases := map[string]any{}
			for i, name := range td.PhaseNames {
				var c uint64
				if i < len(smp.Phases) {
					c = smp.Phases[i]
				}
				phases[name] = c - prev[i]
				prev[i] = c
			}
			minor := counterAt(td, smp, "MinorFaults")
			major := counterAt(td, smp, "MajorFaults")
			out.TraceEvents = append(out.TraceEvents,
				chromeCounter{Name: "phase cycles", Ph: "C", Ts: us(smp.Cycle), Pid: pid, Args: phases},
				chromeCounter{Name: "faults", Ph: "C", Ts: us(smp.Cycle), Pid: pid, Args: map[string]any{
					"minor": minor - prevMinor, "major": major - prevMajor,
				}})
			prevMinor, prevMajor = minor, major
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
