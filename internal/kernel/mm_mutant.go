//go:build mmumutant

package kernel

// mutantSkipUnusePut — seeded refcount bug for the model mutation
// gate (internal/model's TestMutantGate builds this tag and requires
// the refinement to produce a counterexample): UnuseMM takes the lazy-TLB existence reference
// but never drops the kthread's user reference, leaking Users forever.
const mutantSkipUnusePut = true
