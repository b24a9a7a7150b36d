// Package annotation parses the //mmutricks:* directive grammar the
// repo's analyzers enforce. The grammar (also documented in DESIGN.md):
//
//	//mmutricks:free <reason>
//	    On a function declaration: the function deliberately performs
//	    modeled-memory work without charging the cycle ledger — the
//	    cost is returned to (or already paid by) the caller. Waives the
//	    cyclecost analyzer. The reason is mandatory.
//
//	//mmutricks:nocheck <reason>
//	    On a test or experiment function: the function mutates kernel
//	    translation state but intentionally skips CheckConsistency.
//	    Waives the invariantcheck analyzer. The reason is mandatory.
//
//	//mmutricks:nondet-ok <reason>  (trailing, same line)
//	    Statement-level waiver inside a determinism-zone package for a
//	    construct the determinism analyzer would flag (e.g. a map range
//	    whose results are sorted before rendering, or wall-clock time
//	    that never reaches the report bytes). The reason is mandatory.
//
//	//mmutricks:phasebalance-ok <reason>  (trailing, same line)
//	    Statement-level waiver for the phasebalance analyzer on a span
//	    token or exit used outside the provable shapes (the reason must
//	    argue why the phase is still left exactly once). The reason is
//	    mandatory.
//
//	//mmutricks:transitions-ok <reason>  (trailing the func line)
//	    Waiver for the transitions analyzer on an exported kernel
//	    function that mutates context-switch/MM state but is
//	    deliberately absent from the model's action table (the reason
//	    must say how the mutation is otherwise audited). The reason is
//	    mandatory.
//
// Directives are comment directives in the gofmt sense (no space after
// //) and must appear in the doc comment block of the declaration they
// annotate, except the *-ok waivers which trail the waived line.
package annotation

import (
	"go/ast"
	"go/token"
	"strings"
)

// Set is the parsed annotations of one declaration.
type Set struct {
	// Free is set when //mmutricks:free is present; FreeReason carries
	// its justification (empty = malformed, analyzers reject it).
	Free       bool
	FreeReason string
	// Nocheck/NocheckReason mirror Free for //mmutricks:nocheck.
	Nocheck       bool
	NocheckReason string
	// Malformed collects directives that parsed badly (unknown verb or
	// missing mandatory reason) so analyzers can report them instead of
	// silently honouring or ignoring them.
	Malformed []string
}

const prefix = "//mmutricks:"

// ParseDoc extracts the annotation set from a declaration doc comment.
func ParseDoc(doc *ast.CommentGroup) Set {
	var s Set
	if doc == nil {
		return s
	}
	for _, c := range doc.List {
		text, ok := strings.CutPrefix(c.Text, prefix)
		if !ok {
			continue
		}
		verb, rest, _ := strings.Cut(text, " ")
		rest = strings.TrimSpace(rest)
		switch verb {
		case "free":
			if rest == "" {
				s.Malformed = append(s.Malformed, c.Text+" (free requires a reason)")
				continue
			}
			s.Free, s.FreeReason = true, rest
		case "nocheck":
			if rest == "" {
				s.Malformed = append(s.Malformed, c.Text+" (nocheck requires a reason)")
				continue
			}
			s.Nocheck, s.NocheckReason = true, rest
		case "nondet-ok", "phasebalance-ok":
			s.Malformed = append(s.Malformed, c.Text+" ("+verb+" is a line waiver, not a declaration annotation)")
		default:
			s.Malformed = append(s.Malformed, c.Text+" (unknown directive)")
		}
	}
	return s
}

// OfFunc returns the annotations on a function declaration.
func OfFunc(decl *ast.FuncDecl) Set {
	if decl == nil {
		return Set{}
	}
	return ParseDoc(decl.Doc)
}

// Waivers is the line-waiver scan: it collects trailing
// //mmutricks:<verb> comments (verb is one of the *-ok waiver verbs)
// and returns the waived line numbers with their reasons. Waivers
// without a reason are returned in malformed, keyed by line.
func Waivers(fset *token.FileSet, f *ast.File, verb string) (waived map[int]string, malformed map[int]string) {
	waived = map[int]string{}
	malformed = map[int]string{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, prefix+verb)
			if !ok {
				continue
			}
			// Reject prefix-overlap matches ("nondet-ok" must not
			// claim a "nondet-okay" comment).
			if text != "" && text[0] != ' ' && text[0] != '\t' {
				continue
			}
			line := fset.Position(c.Pos()).Line
			reason := strings.TrimSpace(text)
			if reason == "" {
				malformed[line] = c.Text
				continue
			}
			waived[line] = reason
		}
	}
	return waived, malformed
}

// Pos of the first directive, for malformed-directive diagnostics.
func DocDirectivePos(doc *ast.CommentGroup) token.Pos {
	if doc == nil {
		return token.NoPos
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, prefix) {
			return c.Pos()
		}
	}
	return doc.Pos()
}
