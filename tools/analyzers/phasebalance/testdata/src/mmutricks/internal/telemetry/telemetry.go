// Package telemetry is the phasebalance fixture stub: the ledger's raw
// primitives, forbidden outside telemetry and mmtrace.
package telemetry

type Phase int

type Phases struct{}

func (p *Phases) Enter(ph Phase) uint64 { return 0 }
func (p *Phases) Exit()                 {}

// internallyBalanced uses the primitives directly: the analyzer exempts
// the package that implements them.
func (p *Phases) internallyBalanced(ph Phase) {
	p.Enter(ph)
	p.Exit()
}
