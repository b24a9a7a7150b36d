//go:build mmumutant

package kernel

// mutantSkipUnusePut — seeded refcount bug for the model mutation
// gate (CI builds this tag and requires `mmu model -refine` to produce
// a counterexample): UnuseMM takes the lazy-TLB existence reference
// but never drops the kthread's user reference, leaking Users forever.
const mutantSkipUnusePut = true
