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
	cases := []struct {
		doc  string
		want Set
	}{
		{"//mmutricks:noalloc", Set{Noalloc: true}},
		{"// Lookup is hot.\n//\n//mmutricks:noalloc", Set{Noalloc: true}},
		{"//mmutricks:free cost returned to caller", Set{Free: true, FreeReason: "cost returned to caller"}},
		{"//mmutricks:nocheck panics mid-flush", Set{Nocheck: true, NocheckReason: "panics mid-flush"}},
		// Malformed forms: honored as nothing, reported as malformed.
		{"//mmutricks:noalloc extra", Set{Malformed: []string{"//mmutricks:noalloc extra (noalloc takes no argument)"}}},
		{"//mmutricks:free", Set{Malformed: []string{"//mmutricks:free (free requires a reason)"}}},
		{"//mmutricks:nocheck", Set{Malformed: []string{"//mmutricks:nocheck (nocheck requires a reason)"}}},
		// Stacked directives in one doc block all take effect.
		{"//mmutricks:noalloc\n//mmutricks:free cost charged by caller", Set{Noalloc: true, Free: true, FreeReason: "cost charged by caller"}},
		// Line waivers on the wrong declaration kind (a doc comment) are
		// malformed, never honoured.
		{"//mmutricks:noalloc-ok cold path", Set{Malformed: []string{"//mmutricks:noalloc-ok cold path (noalloc-ok is a line waiver, not a declaration annotation)"}}},
		{"//mmutricks:nondet-ok sorted later", Set{Malformed: []string{"//mmutricks:nondet-ok sorted later (nondet-ok is a line waiver, not a declaration annotation)"}}},
		{"//mmutricks:phasebalance-ok exit runs once", Set{Malformed: []string{"//mmutricks:phasebalance-ok exit runs once (phasebalance-ok is a line waiver, not a declaration annotation)"}}},
		{"//mmutricks:frobnicate", Set{Malformed: []string{"//mmutricks:frobnicate (unknown directive)"}}},
		// Non-directive comments are ignored.
		{"// mmutricks:noalloc has a space, so it is prose", Set{}},
	}
	for _, tc := range cases {
		got := parseFuncDoc(t, tc.doc)
		if got.Noalloc != tc.want.Noalloc || got.Free != tc.want.Free ||
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

func TestLineWaivers(t *testing.T) {
	src := `package p

func f() *int {
	x := new(int) //mmutricks:noalloc-ok boot-time only
	y := new(int) //mmutricks:noalloc-ok
	_ = y
	return x
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	waived, malformed := LineWaivers(fset, f)
	if got := waived[4]; got != "boot-time only" {
		t.Errorf("waived[4] = %q, want %q", got, "boot-time only")
	}
	if len(waived) != 1 {
		t.Errorf("waived = %v, want exactly line 4", waived)
	}
	if _, ok := malformed[5]; !ok || len(malformed) != 1 {
		t.Errorf("malformed = %v, want exactly line 5 (reasonless waiver)", malformed)
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
	g() //mmutricks:noalloc-ok cold path
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

	// Prefix overlap: scanning for "noalloc" must not claim the
	// "noalloc-ok" waiver on line 9.
	overlap, overlapBad := Waivers(fset, f, "noalloc")
	if len(overlap) != 0 || len(overlapBad) != 0 {
		t.Errorf("Waivers(noalloc) = %v %v, want empty (noalloc-ok is a different verb)", overlap, overlapBad)
	}
	noallocOK, _ := Waivers(fset, f, "noalloc-ok")
	if got := noallocOK[9]; got != "cold path" || len(noallocOK) != 1 {
		t.Errorf("noalloc-ok waived = %v, want exactly line 9", noallocOK)
	}
}
