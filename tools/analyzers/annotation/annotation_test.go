package annotation

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func parseFuncDoc(t *testing.T, doc string) Set {
	t.Helper()
	src := "package p\n\n" + doc + "\nfunc f() {}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return OfFunc(f.Decls[0].(*ast.FuncDecl))
}

func TestParseDoc(t *testing.T) {
	// The allocation proof moved to the compiler's listing
	// (tools/hotpath); its retired verbs are spelled in two pieces so
	// that a search of the tree for a leftover directive finds none.
	const retired = "//mmutricks:" + "noalloc"
	cases := []struct {
		doc  string
		want Set
	}{
		{"//mmutricks:free cost returned to caller", Set{Free: true, FreeReason: "cost returned to caller"}},
		{"//mmutricks:nocheck panics mid-flush", Set{Nocheck: true, NocheckReason: "panics mid-flush"}},
		// Malformed forms: honored as nothing, reported as malformed.
		{"//mmutricks:free", Set{Malformed: []string{"//mmutricks:free (free requires a reason)"}}},
		{"//mmutricks:nocheck", Set{Malformed: []string{"//mmutricks:nocheck (nocheck requires a reason)"}}},
		// Stacked directives in one doc block all take effect.
		{"//mmutricks:free cost charged by caller\n//mmutricks:nocheck panics mid-flush", Set{Free: true, FreeReason: "cost charged by caller", Nocheck: true, NocheckReason: "panics mid-flush"}},
		// Line waivers on the wrong declaration kind (a doc comment) are
		// malformed, never honoured.
		{"//mmutricks:nondet-ok sorted later", Set{Malformed: []string{"//mmutricks:nondet-ok sorted later (nondet-ok is a line waiver, not a declaration annotation)"}}},
		{"//mmutricks:phasebalance-ok exit runs once", Set{Malformed: []string{"//mmutricks:phasebalance-ok exit runs once (phasebalance-ok is a line waiver, not a declaration annotation)"}}},
		{"//mmutricks:frobnicate", Set{Malformed: []string{"//mmutricks:frobnicate (unknown directive)"}}},
		// Retired directives left behind are unknown, not silently
		// ignored.
		{retired, Set{Malformed: []string{retired + " (unknown directive)"}}},
		{"// Lookup is hot.\n//\n" + retired, Set{Malformed: []string{retired + " (unknown directive)"}}},
		{retired + "-ok cold path", Set{Malformed: []string{retired + "-ok cold path (unknown directive)"}}},
		// Non-directive comments are ignored.
		{"// mmutricks:free has a space, so it is prose", Set{}},
	}
	for _, tc := range cases {
		got := parseFuncDoc(t, tc.doc)
		if got.Free != tc.want.Free ||
			got.FreeReason != tc.want.FreeReason || got.Nocheck != tc.want.Nocheck ||
			got.NocheckReason != tc.want.NocheckReason || len(got.Malformed) != len(tc.want.Malformed) {
			t.Errorf("ParseDoc(%q) = %+v, want %+v", tc.doc, got, tc.want)
			continue
		}
		for i := range got.Malformed {
			if got.Malformed[i] != tc.want.Malformed[i] {
				t.Errorf("ParseDoc(%q) malformed[%d] = %q, want %q", tc.doc, i, got.Malformed[i], tc.want.Malformed[i])
			}
		}
	}
}

func TestWaiverVerbsAndPlacement(t *testing.T) {
	src := `package p

func f() {
	g() //mmutricks:nondet-ok sorted downstream
	g() //mmutricks:phasebalance-ok exit runs in h
	//mmutricks:nondet-ok floating waiver
	g()
	g() //mmutricks:nondet-ok
	g() //mmutricks:nondet-okay a different verb
}

func g() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}

	// Each verb sees only its own waivers.
	nondet, nondetBad := Waivers(fset, f, "nondet-ok")
	if got := nondet[4]; got != "sorted downstream" {
		t.Errorf("nondet waived[4] = %q, want %q", got, "sorted downstream")
	}
	// A waiver on its own line registers to that line, not the
	// statement below it: placement is trailing, same line.
	if got := nondet[6]; got != "floating waiver" {
		t.Errorf("nondet waived[6] = %q, want %q (waivers bind to their own line)", got, "floating waiver")
	}
	if _, ok := nondet[7]; ok {
		t.Errorf("nondet waived[7] present; a floating waiver must not cover the next line")
	}
	// A verb that merely starts with nondet-ok is a different verb.
	if _, ok := nondet[9]; ok {
		t.Errorf("nondet waived[9] present; nondet-okay is not nondet-ok")
	}
	if len(nondet) != 2 {
		t.Errorf("nondet waived = %v, want exactly lines 4 and 6", nondet)
	}
	if _, ok := nondetBad[8]; !ok || len(nondetBad) != 1 {
		t.Errorf("nondet malformed = %v, want exactly line 8 (reasonless waiver)", nondetBad)
	}

	balance, balanceBad := Waivers(fset, f, "phasebalance-ok")
	if got := balance[5]; got != "exit runs in h" || len(balance) != 1 || len(balanceBad) != 0 {
		t.Errorf("phasebalance waived = %v malformed = %v, want exactly line 5", balance, balanceBad)
	}
}
