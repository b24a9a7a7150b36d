package hotpath

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

const in = "mmutricks/internal/"

// hot pins the simulator's allocation-free hot path.
var hot = Spec{
	Roots: []string{
		// The entry points: the MMU's translation, the machine's scalar
		// and batched accesses, the cache's masked count-only run, the
		// kernel's batched reference entry and the tracer's record path.
		in + "ppc.(*MMU).Translate",
		in + "machine.(*Machine).MemAccess",
		in + "machine.(*Machine).Fetch",
		in + "machine.(*Machine).MemAccessRun",
		in + "machine.(*Machine).MemAccessRunMask",
		in + "machine.(*Machine).FetchRun",
		in + "machine.(*Machine).MemPairRun",
		in + "cache.(*Cache).AccessRunCountMask",
		in + "kernel.(*Kernel).AccessRun",
		in + "mmtrace.(*Tracer).record",

		// Functions that allocating code (fault handlers, the idle
		// task, the scheduler) calls and no entry point reaches.
		in + "cache.(*Cache).InvalidateLine",
		in + "cache.(*Cache).ZeroLineRun",
		in + "cache.(*Cache).install",
		in + "cache.(*Cache).sink",
		in + "cache.dirtyOf",
		in + "faultinject.(*Injector).Suspend",
		in + "faultinject.(*Injector).Resume",
		in + "faultinject.(*Injector).HasMC",
		in + "kernel.(*Kernel).ZombieVSID",
		in + "kernel.(*Kernel).dataResident",
		in + "kernel.(*pfnSet).has",
		in + "kernel.(*pfnSet).remove",
		in + "kernel.(*Task).owns",
		in + "kernel.(*Task).disownFrame",
		in + "machine.(*Machine).ZeroLineRun",
		in + "mmtrace.(*Tracer).end",
		in + "pagetable.(*Table).Walk",
		in + "pagetable.(*Table).Lookup",
		in + "pagetable.(*Table).WalkAddrs",
		in + "phys.(*Memory).AllocFrame",
		in + "phys.(*Memory).GetFreePage",
		in + "phys.(*Memory).PopClearedCandidate",
		in + "ppc.(*HTAB).Insert",
		in + "ppc.(*HTAB).FlushVPN",
		in + "ppc.(*HTAB).ReclaimScan",
		in + "ppc.(*TLB).Peek",
		in + "ppc.(*TLB).Insert",
		in + "telemetry.(*Phases).Enter",
		in + "telemetry.(*Phases).Exit",
		in + "telemetry.(*Phases).SetTask",
		in + "telemetry.(*Phases).Enabled",

		// The tracer's typed calls. Each inlines into its callers,
		// which are mostly fault, flush and idle handlers off the hot
		// path, so the proof checks the body the compiler emits for it.
		in + "mmtrace.(*Tracer).HTABMiss",
		in + "mmtrace.(*Tracer).HashMissHandled",
		in + "mmtrace.(*Tracer).SoftReload",
		in + "mmtrace.(*Tracer).HTABInsertFree",
		in + "mmtrace.(*Tracer).HTABEvictLive",
		in + "mmtrace.(*Tracer).HTABEvictZombie",
		in + "mmtrace.(*Tracer).OnDemandScan",
		in + "mmtrace.(*Tracer).MinorFault",
		in + "mmtrace.(*Tracer).COWBreak",
		in + "mmtrace.(*Tracer).MajorFault",
		in + "mmtrace.(*Tracer).FlushPage",
		in + "mmtrace.(*Tracer).FlushRange",
		in + "mmtrace.(*Tracer).FlushCutoff",
		in + "mmtrace.(*Tracer).FlushContext",
		in + "mmtrace.(*Tracer).VSIDReassign",
		in + "mmtrace.(*Tracer).CtxSwitch",
		in + "mmtrace.(*Tracer).IdleReclaim",
		in + "mmtrace.(*Tracer).PageZero",
		in + "mmtrace.(*Tracer).SwapOut",
		in + "mmtrace.(*Tracer).SwapIn",
		in + "mmtrace.(*Tracer).MachineCheck",
		in + "mmtrace.(*Tracer).MCRepairTLB",
		in + "mmtrace.(*Tracer).MCRepairHTAB",
		in + "mmtrace.(*Tracer).MCRepairBAT",
		in + "mmtrace.(*Tracer).MCRepairCache",
		in + "mmtrace.(*Tracer).MCEscalate",
		in + "mmtrace.(*Tracer).MCSpurious",
		in + "mmtrace.(*Tracer).Enter",
		in + "mmtrace.(*Tracer).Exit",
		in + "mmtrace.(*Tracer).Syscall",
		in + "mmtrace.(*Tracer).IdleWait",
		in + "mmtrace.(*Tracer).IdleScan",
		in + "mmtrace.(*Tracer).KthreadMMSwitch",
		in + "mmtrace.(*Tracer).Counters",
		in + "mmtrace.(*Tracer).SetTask",
	},
	Cuts: []Cut{
		{in + "kernel.(*Kernel).translate", in + "kernel.(*Kernel).handleFault", "the fault path runs the allocating fault handlers by design"},
		{in + "kernel.(*Kernel).AccessRun", in + "kernel.(*Kernel).access", "the scalar fallback runs the allocating fault and COW paths by design"},
	},
	Ifaces: map[string][]string{
		in + "ppc.Bus":     {in + "machine.(*Machine).MemAccess"},
		in + "ppc.runBus":  {in + "machine.(*Machine).MemAccessRun"},
		in + "ppc.Zombies": {in + "kernel.(*Kernel).ZombieVSID"},
	},
}

// TestHotPath proves the hot path allocation-free from the compiler's
// listing of ./internal/..., with no profile and with the profile the
// shipped binary builds with. The call graph comes from the build
// without a profile: under the profile the slow paths behind the cuts
// inline into their callers. Bodies are checked under both.
func TestHotPath(t *testing.T) {
	ls := []*Listing{compile(t, "off", "./internal/..."), compile(t, "cmd/mmureport/default.pgo", "./internal/...")}
	reached, problems := hot.Reach(ls[0])
	for _, l := range ls {
		problems = append(problems, hot.Check(l, reached)...)
		problems = append(problems, inlining(l)...)
	}
	for _, p := range problems {
		t.Error(p)
	}
	t.Logf("%d roots reach %d functions", len(hot.Roots), len(reached))
}

// compile returns the listing of pkg, built in this module with
// -pgo=pgo.
func compile(t *testing.T, pgo, pkg string) *Listing {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("the panic-path reading of the listing knows amd64's branch mnemonics only")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	l, err := Compile(root, pgo, pkg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// inlining checks the inlining decisions the hot path's speed rests on.
//
// The 4-way cache paths probe and fill through small helpers that must
// inline, and run through two kernels that must not: hitRun advances a
// run while it hits and fillRun while it misses, each keeping its loop
// state in registers. A helper grown past the inliner's budget turns
// every simulated reference into a call, and a kernel inlined into a
// caller spills its loop state to the stack; either gives back most of
// the run path's speed with no other test failing. So does a kernel
// whose own state outgrows the registers: no instruction of either may
// address the stack.
//
// The tracer's typed calls count, trace and attribute the simulator's
// work whether or not tracing is on. A call grown past the budget, or a
// package that stops importing mmtrace itself, puts a function call on
// every TLB miss, fault, flush and syscall.
func inlining(l *Listing) (problems []string) {
	bad := func(format string, args ...any) {
		problems = append(problems, "-pgo="+l.PGO+": "+fmt.Sprintf(format, args...))
	}
	helpers := []string{"probe4", "fill4", "hit4"}
	tracer := in + "mmtrace.(*Tracer)."
	traced := map[string]bool{}
	for _, f := range l.Funcs {
		pkg, _, _ := strings.Cut(strings.TrimPrefix(f.Name, in), ".")
		for _, r := range f.Rels {
			if r.Kind != "R_CALL" {
				continue
			}
			if h, ok := strings.CutPrefix(r.Sym, in+"cache."); ok && slices.Contains(helpers, h) {
				bad("%s calls cache.%s instead of inlining it", f.Name, h)
			}
			if m, ok := strings.CutPrefix(r.Sym, tracer); ok && unicode.IsUpper(rune(m[0])) && (pkg == "ppc" || pkg == "kernel" || pkg == "machine") {
				bad("%s calls mmtrace.(*Tracer).%s at %s instead of inlining it", f.Name, m, f.Insts[r.Inst].Pos)
			}
		}
		for _, i := range f.Insts {
			if strings.HasPrefix(i.Pos, "internal/mmtrace/") && strings.HasPrefix(f.Name, in) {
				traced[pkg] = true
			}
		}
	}
	for _, p := range [][2]string{{"(*Cache).Access", "probe4"}, {"(*Cache).Access", "fill4"}, {"hitRun", "hit4"}, {"fillRun", "probe4"}, {"fillRun", "fill4"}} {
		if !l.inlines(in+"cache."+p[0], in+"cache."+p[1]) {
			bad("cache.%s no longer inlines %s", p[0], p[1])
		}
	}
	for _, k := range []string{"hitRun", "fillRun"} {
		marked := slices.ContainsFunc(l.Diags, func(d string) bool {
			return strings.HasSuffix(d, ": cannot inline "+k+": marked go:noinline")
		})
		f := l.Funcs[in+"cache."+k]
		if f == nil || !marked {
			bad("the run kernel cache.%s is missing or not marked go:noinline", k)
			continue
		}
		for _, i := range f.Insts {
			if strings.Contains(i.Arg, "(SP)") {
				bad("the run kernel cache.%s addresses the stack at %s: %s %s", k, i.Pos, i.Op, i.Arg)
			}
		}
	}
	for _, pkg := range []string{"ppc", "kernel", "machine"} {
		if !traced[pkg] {
			bad("no function in %s holds inlined tracer code", pkg)
		}
	}
	sort.Strings(problems)
	return problems
}

// inlines reports whether caller holds code from callee's source lines,
// that is, has callee inlined.
func (l *Listing) inlines(caller, callee string) bool {
	f, g := l.Funcs[caller], l.Funcs[callee]
	if f == nil || g == nil || len(g.Insts) == 0 {
		return false
	}
	file, _ := splitPos(g.Insts[0].Pos)
	lo, hi := 1<<30, 0
	for _, i := range g.Insts {
		if fl, n := splitPos(i.Pos); fl == file {
			lo, hi = min(lo, n), max(hi, n)
		}
	}
	return slices.ContainsFunc(f.Insts, func(i Inst) bool {
		fl, n := splitPos(i.Pos)
		return fl == file && lo <= n && n <= hi
	})
}

func splitPos(pos string) (string, int) {
	i := strings.LastIndexByte(pos, ':')
	if i < 0 {
		return pos, 0
	}
	n, _ := strconv.Atoi(pos[i+1:])
	return pos[:i], n
}

const mutant = "mmutricks/tools/hotpath/testdata/mutant."

// TestMutants runs the proof over testdata/mutant, whose functions
// each allocate through one construct, and requires it to name every
// one of them with the call that allocates, and no other function.
func TestMutants(t *testing.T) {
	l := compile(t, "off", "./tools/hotpath/testdata/mutant")
	want := map[string]string{
		"Append":        "runtime.growslice",
		"Make":          "runtime.makeslice",
		"New":           "runtime.newobject",
		"MapLit":        "runtime.makemap_small",
		"SliceLit":      "runtime.newobject",
		"AddrLit":       "runtime.newobject",
		"Closure":       "runtime.newobject",
		"Go":            "runtime.newproc",
		"MethodValue":   "runtime.newobject",
		"CallFuncValue": "indirect call",
		"Box":           "runtime.convT64",
		"Concat":        "runtime.concatstring2",
		"StringToBytes": "runtime.stringtoslicebyte",
		"Variadic":      "runtime.newobject",
		"Stdlib":        "strconv.FormatInt",
		"DeferInLoop":   "runtime.deferproc",
	}
	spec := Spec{
		Roots:  []string{mutant + "Panics", mutant + "ViaIface", mutant + "(*T).Get"},
		Ifaces: map[string][]string{mutant + "I": {mutant + "(*T).Get"}},
	}
	for name := range want {
		spec.Roots = append(spec.Roots, mutant+name)
	}
	reached, problems := spec.Reach(l)
	problems = append(problems, spec.Check(l, reached)...)
	named := map[string]bool{}
	for _, p := range problems {
		name, _, _ := strings.Cut(strings.TrimPrefix(p, mutant), " ")
		call, ok := want[name]
		if !ok {
			t.Errorf("unexpected: %s", p)
		}
		named[name] = named[name] || strings.Contains(p, call)
	}
	for name, call := range want {
		if !named[name] {
			t.Errorf("%s: no problem reported, want one naming %s", name, call)
		}
	}
}

// TestAnchors checks that a root, cut or interface implementation the
// listing lacks fails the proof, so that deleting or renaming one
// cannot shrink what it covers.
func TestAnchors(t *testing.T) {
	l := compile(t, "off", "./tools/hotpath/testdata/mutant")
	spec := Spec{
		Roots:  []string{mutant + "Gone"},
		Cuts:   []Cut{{mutant + "Variadic", mutant + "New", "stale"}},
		Ifaces: map[string][]string{mutant + "I": {mutant + "(*T).Get"}},
	}
	_, problems := spec.Reach(l)
	for _, want := range []string{
		"root " + mutant + "Gone is not in the -pgo=off listing",
		"cut " + mutant + "Variadic -> " + mutant + "New (stale): no such call in the -pgo=off listing",
		mutant + "(*T).Get implements " + mutant + "I but is not a root",
	} {
		if !slices.Contains(problems, want) {
			t.Errorf("missing %q in %q", want, problems)
		}
	}
}
