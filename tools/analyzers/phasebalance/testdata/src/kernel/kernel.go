// Package kernel is the phasebalance fixture: every balanced shape the
// real kernel uses, then the violations.
package kernel

import (
	"mmutricks/internal/mmtrace"
	"mmutricks/internal/telemetry"
)

type K struct {
	Trc *mmtrace.Tracer
	tok mmtrace.Span
	vs  uint32
}

// deferred: the canonical shape.
func (k *K) deferred() {
	defer k.Trc.Exit(k.Trc.Enter(telemetry.Phase(1)))
}

// eventExit: an event call that ends the span.
func (k *K) eventExit() {
	defer k.Trc.SwapOut(k.Trc.Enter(9), &k.vs)
}

// entry is an entering helper: its token goes back to the caller, whose
// call then returns a token too.
func (k *K) entry() mmtrace.Span {
	s := k.Trc.Syscall()
	k.work()
	return s
}

// enter returns the token directly.
func (k *K) enter() mmtrace.Span { return k.Trc.Enter(2) }

// viaHelpers: the syscallEntry pattern.
func (k *K) viaHelpers() {
	defer k.Trc.Exit(k.entry())
	defer k.Trc.Exit(k.enter())
}

// inClosure: a function literal is checked as a body of its own.
func (k *K) inClosure() {
	func() {
		defer k.Trc.Exit(k.Trc.Enter(3))
	}()
}

func (k *K) work() {}

// dropped: the token is discarded, so the phase is never left.
func (k *K) dropped() {
	k.Trc.Enter(0) // want `the span token Enter returns is dropped`
}

// notDeferred: a panic in work would leave the phase open.
func (k *K) notDeferred() {
	s := k.Trc.Enter(0)
	k.work()
	k.Trc.Exit(s) // want `Exit leaves a phase but is not deferred`
}

// stored: a token in a field escapes the proof.
func (k *K) stored() {
	k.tok = k.Trc.Syscall() // want `the span token Syscall returns must be used exactly once`
}

// raw: the ledger's primitives bypass the token.
func (k *K) raw() {
	k.Trc.Phases().Enter(0) // want `calls telemetry.Phases.Enter directly`
}

// waived: the waiver vouches for the shape it sits on; a waiver needs a
// reason.
func (k *K) waived() {
	k.tok = k.Trc.Enter(0)           //mmutricks:phasebalance-ok left by the interrupt return path
	defer k.Trc.Exit(k.Trc.Enter(0)) /* want `waiver requires a reason` */ //mmutricks:phasebalance-ok
}
