// Package mmtrace is the phasebalance fixture stub: the span token, the
// entering calls that return it and the exiting calls that take it.
package mmtrace

import "mmutricks/internal/telemetry"

type Span struct{ start uint64 }

type Tracer struct{ ph *telemetry.Phases }

func (t *Tracer) Phases() *telemetry.Phases { return t.ph }

func (t *Tracer) Enter(ph telemetry.Phase) Span { return Span{t.ph.Enter(ph)} }
func (t *Tracer) Exit(s Span)                   { t.ph.Exit() }

// Syscall is a typed entering call.
func (t *Tracer) Syscall() Span {
	s := t.Enter(4)
	return s
}

// SwapOut is an event call that ends a span.
func (t *Tracer) SwapOut(s Span, vs *uint32) { t.Exit(s) }

// exempt breaks every rule: the analyzer skips the package that
// implements the discipline.
func (t *Tracer) exempt() {
	t.Enter(0)
	t.Exit(t.Enter(0))
}
