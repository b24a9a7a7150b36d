// Package hotpath checks the simulator's hot path against the code the
// compiler actually emitted. Compile builds packages with -S -m=2 and
// parses the assembly listing; Spec.Check walks the direct calls
// (R_CALL relocations) from a set of pinned roots and reports every
// allocation, indirect call and missing anchor in the functions it
// reaches. The listing is what runs, so the check carries no model of
// Go's allocation rules: escape analysis, inlining and boxing have
// already happened by the time it reads the code.
package hotpath

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Listing is the compiler's output for one build.
type Listing struct {
	// PGO is the -pgo value the build ran with.
	PGO string
	// Funcs holds every function the build emitted, by symbol.
	Funcs map[string]*Func
	// Diags are the -m=2 lines: inlining and escape decisions.
	Diags []string
}

// Func is one function's listing.
type Func struct {
	Name  string
	Insts []Inst // in address order
	Rels  []Rel
}

// Inst is one instruction.
type Inst struct {
	PC  int
	Pos string // file:line, the file relative to the module root
	Op  string
	Arg string
}

// Rel is one relocation, with the instruction that holds it.
type Rel struct {
	Kind string // R_CALL, R_CALLIND, R_USEIFACEMETHOD, ...
	Sym  string // target symbol, without its addend
	Inst int    // index into Func.Insts
}

// Compile builds pkgs in the module rooted at dir with -pgo=pgo, the
// compiler listing every package of the module, and parses the output.
// The go command caches compiler output, so a rebuild of unchanged
// packages replays it without compiling.
func Compile(dir, pgo string, pkgs ...string) (*Listing, error) {
	args := append([]string{"build", "-pgo=" + pgo, "-gcflags=mmutricks/...=-S -m=2"}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=")
	out, err := cmd.CombinedOutput()
	if err != nil {
		lines := strings.Split(string(out), "\n")
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, strings.Join(lines[max(0, len(lines)-40):], "\n"))
	}
	l := parse(string(out), dir)
	l.PGO = pgo
	return l, nil
}

// parse reads a -S -m=2 listing; root is the module directory, trimmed
// from instruction positions.
func parse(out, root string) *Listing {
	l := &Listing{Funcs: map[string]*Func{}}
	root += string(filepath.Separator)
	var f *Func
	type pending struct {
		off       int
		kind, sym string
	}
	var rels []pending
	flush := func() {
		if f == nil {
			return
		}
		for _, r := range rels {
			// A relocation belongs to the last instruction that starts
			// at or before it.
			i := sort.Search(len(f.Insts), func(i int) bool { return f.Insts[i].PC > r.off }) - 1
			f.Rels = append(f.Rels, Rel{Kind: r.kind, Sym: r.sym, Inst: i})
		}
		rels = rels[:0]
		f = nil
	}
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "\trel "):
			// rel OFF+SIZE t=KIND SYM+ADD
			fs := strings.SplitN(line[len("\trel "):], " ", 3)
			if f == nil || len(fs) < 3 {
				continue
			}
			off, _, _ := strings.Cut(fs[0], "+")
			n, err := strconv.Atoi(off)
			if err != nil {
				continue
			}
			sym := fs[2]
			if i := strings.LastIndexByte(sym, '+'); i >= 0 {
				sym = sym[:i]
			}
			rels = append(rels, pending{n, strings.TrimPrefix(fs[1], "t="), sym})
		case strings.HasPrefix(line, "\t0x"):
			// 0xHHHH DDDDD (file:line)	OP	ARG; hex dump lines
			// carry bytes where the position would be.
			fs := strings.SplitN(line[1:], "\t", 3)
			addr := strings.SplitN(fs[0], " ", 3)
			if f == nil || len(fs) < 2 || len(addr) < 3 || !strings.HasPrefix(addr[2], "(") {
				continue
			}
			pc, err := strconv.Atoi(addr[1])
			if err != nil {
				continue
			}
			in := Inst{PC: pc, Pos: strings.TrimPrefix(strings.Trim(addr[2], "()"), root), Op: fs[1]}
			if len(fs) == 3 {
				in.Arg = fs[2]
			}
			f.Insts = append(f.Insts, in)
		case strings.HasPrefix(line, "\t"):
			// Other detail of the current symbol.
		default:
			flush()
			if name, rest, ok := strings.Cut(line, " "); ok && strings.HasPrefix(rest, "STEXT") {
				if l.Funcs[name] == nil { // DUPOK symbols repeat across packages
					f = &Func{Name: name}
					l.Funcs[name] = f
				}
			} else if strings.HasSuffix(name, ":") && strings.Contains(name, ".go:") {
				l.Diags = append(l.Diags, line)
			}
		}
	}
	flush()
	return l
}

// Spec pins what Check proves.
type Spec struct {
	// Roots are the entry points of the hot path.
	Roots []string
	// Cuts are direct calls the walk does not follow: slow paths that
	// allocate by design.
	Cuts []Cut
	// Ifaces maps an interface type to the methods implementing it. A
	// reached function may call indirectly only if it uses a listed
	// interface's method, and every listed implementation must be a
	// root.
	Ifaces map[string][]string
}

// Cut is one direct call left out of the walk, with the reason.
type Cut struct{ From, To, Why string }

// allocs are the runtime entry points that may allocate on the heap.
var allocs = []string{
	"runtime.newobject", "runtime.mallocgc", "runtime.growslice",
	"runtime.makeslice", "runtime.makemap", "runtime.mapassign",
	"runtime.makechan", "runtime.convT", "runtime.concatstring",
	"runtime.slicebytetostring", "runtime.stringtoslicebyte",
	"runtime.slicerunetostring", "runtime.stringtoslicerune",
	"runtime.intstring", "runtime.newproc",
}

// allocates reports whether a direct call to sym may allocate: a call
// to one of allocs, a heap defer, or a call whose code the listing does
// not show (the standard library).
func (l *Listing) allocates(sym string) bool {
	if l.Funcs[sym] != nil {
		return false
	}
	if sym == "runtime.deferproc" { // deferprocStack keeps its record on the stack
		return true
	}
	for _, a := range allocs {
		if strings.HasPrefix(sym, a) {
			return true
		}
	}
	return !strings.HasPrefix(sym, "runtime.")
}

// Reach returns the functions the roots reach in graph by direct calls
// other than the cuts, sorted, and the anchors that fail: a root or cut
// absent from the listing, or an interface implementation that is not
// a root.
func (s *Spec) Reach(graph *Listing) (reached []string, problems []string) {
	cut := map[[2]string]bool{}
	for _, c := range s.Cuts {
		cut[[2]string{c.From, c.To}] = true
		if !graph.calls(c.From, c.To) {
			problems = append(problems, fmt.Sprintf("cut %s -> %s (%s): no such call in the -pgo=%s listing", c.From, c.To, c.Why, graph.PGO))
		}
	}
	isRoot := map[string]bool{}
	for _, r := range s.Roots {
		isRoot[r] = true
	}
	for iface, impls := range s.Ifaces {
		for _, m := range impls {
			if !isRoot[m] {
				problems = append(problems, fmt.Sprintf("%s implements %s but is not a root", m, iface))
			}
		}
	}
	seen := map[string]bool{}
	var walk func(name string)
	walk = func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		reached = append(reached, name)
		for _, r := range graph.Funcs[name].Rels {
			if r.Kind == "R_CALL" && graph.Funcs[r.Sym] != nil && !cut[[2]string{name, r.Sym}] {
				walk(r.Sym)
			}
		}
	}
	for _, r := range s.Roots {
		if graph.Funcs[r] == nil {
			problems = append(problems, fmt.Sprintf("root %s is not in the -pgo=%s listing", r, graph.PGO))
			continue
		}
		walk(r)
	}
	sort.Strings(reached)
	return reached, problems
}

// Check reports, in the bodies of funcs as l compiled them, every call
// that may allocate and does not only build a panic's value, and every
// indirect call made by a function that uses no listed interface.
func (s *Spec) Check(l *Listing, funcs []string) (problems []string) {
	ifaces := map[string]bool{}
	for iface := range s.Ifaces {
		ifaces["type:"+iface] = true
	}
	for _, name := range funcs {
		f := l.Funcs[name]
		if f == nil {
			problems = append(problems, fmt.Sprintf("%s is not in the -pgo=%s listing", name, l.PGO))
			continue
		}
		viaIface := false
		for _, r := range f.Rels {
			viaIface = viaIface || r.Kind == "R_USEIFACEMETHOD" && ifaces[r.Sym]
		}
		for _, r := range f.Rels {
			in := f.Insts[r.Inst]
			switch {
			case r.Kind == "R_CALL" && l.allocates(r.Sym) && !f.panics(r.Inst):
				problems = append(problems, fmt.Sprintf("%s (-pgo=%s): calls %s at %s", name, l.PGO, r.Sym, in.Pos))
			case r.Kind == "R_CALLIND" && !viaIface:
				problems = append(problems, fmt.Sprintf("%s (-pgo=%s): indirect call at %s through no listed interface", name, l.PGO, in.Pos))
			}
		}
	}
	return problems
}

// calls reports whether from makes a direct call to to.
func (l *Listing) calls(from, to string) bool {
	if f := l.Funcs[from]; f != nil {
		for _, r := range f.Rels {
			if r.Kind == "R_CALL" && r.Sym == to {
				return true
			}
		}
	}
	return false
}

// panics reports whether every path on from instruction i reaches a
// runtime panic before it can return: the allocation at i then only
// builds the panic's value. It reads amd64's jumps (JMP and the
// conditional J*).
func (f *Func) panics(i int) bool {
	seen := map[int]bool{}
	var from func(i int) bool
	from = func(i int) bool {
		for ; i < len(f.Insts); i++ {
			if seen[i] {
				return true // a join or loop already on a checked path
			}
			seen[i] = true
			in := f.Insts[i]
			switch {
			case in.Op == "RET":
				return false
			case in.Op == "CALL" && (strings.HasPrefix(in.Arg, "runtime.gopanic(") || strings.HasPrefix(in.Arg, "runtime.panic")):
				return true
			case strings.HasPrefix(in.Op, "J"):
				t, ok := f.at(in.Arg)
				if !ok {
					return false // an indirect jump or a tail call
				}
				if in.Op == "JMP" {
					i = t - 1
				} else if !from(t) {
					return false
				}
			}
		}
		return false
	}
	return from(i + 1)
}

// at returns the index of the instruction at the decimal pc arg.
func (f *Func) at(arg string) (int, bool) {
	pc, err := strconv.Atoi(arg)
	if err != nil {
		return 0, false
	}
	i := sort.Search(len(f.Insts), func(i int) bool { return f.Insts[i].PC >= pc })
	return i, i < len(f.Insts) && f.Insts[i].PC == pc
}
