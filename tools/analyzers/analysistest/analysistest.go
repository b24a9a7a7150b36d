// Package analysistest runs one analyzer over fixture packages laid
// out golang.org/x/tools-style under testdata/src/<importpath>/ and
// compares its diagnostics against `// want "regexp"` comments in the
// fixture sources. Multiple quoted regexps on one want comment expect
// multiple diagnostics on that line.
package analysistest

import (
	"fmt"
	"go/ast"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mmutricks/tools/analyzers/analysis"
	"mmutricks/tools/analyzers/driver"
	"mmutricks/tools/analyzers/load"
)

// Run loads each fixture package below testdata/src, applies the
// analyzer, and reports mismatches against want comments via t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	prog, err := load.Load(load.Config{FakeRoot: testdata + "/src"}, paths...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	diags, err := driver.Run(prog, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			collectWants(t, prog, f, func(file string, line int, rx *regexp.Regexp) {
				k := key{file, line}
				wants[k] = append(wants[k], rx)
			})
		}
	}

	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		matched := -1
		for i, rx := range wants[k] {
			if rx.MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("%s:%d: unexpected diagnostic: %s", d.Pos.Filename, d.Pos.Line, d.Message)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
	}
	for k, rxs := range wants {
		for _, rx := range rxs {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, rx)
		}
	}
}

// collectWants extracts want expectations from one file's comments: a
// line comment containing "// want ", or a block comment /* want ... */
// (for a line whose line comment is itself under test, such as a
// waiver).
func collectWants(t *testing.T, prog *load.Program, f *ast.File, emit func(file string, line int, rx *regexp.Regexp)) {
	t.Helper()
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := c.Text
			var rest string
			if block, ok := strings.CutPrefix(text, "/* want "); ok {
				rest = strings.TrimSuffix(block, "*/")
			} else if idx := strings.Index(text, "// want "); idx >= 0 {
				rest = text[idx+len("// want "):]
			} else {
				continue
			}
			pos := prog.Fset.Position(c.Pos())
			rest = strings.TrimSpace(rest)
			for rest != "" {
				if rest[0] != '"' && rest[0] != '`' {
					t.Fatalf("%s:%d: malformed want comment: %q", pos.Filename, pos.Line, text)
				}
				lit, tail, err := cutQuoted(rest)
				if err != nil {
					t.Fatalf("%s:%d: malformed want comment: %v", pos.Filename, pos.Line, err)
				}
				rx, err := regexp.Compile(lit)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp: %v", pos.Filename, pos.Line, err)
				}
				emit(pos.Filename, pos.Line, rx)
				rest = strings.TrimSpace(tail)
			}
		}
	}
}

// cutQuoted splits a leading Go string literal (quoted or backquoted)
// off s.
func cutQuoted(s string) (lit, rest string, err error) {
	if s[0] == '`' {
		if i := strings.IndexByte(s[1:], '`'); i >= 0 {
			lit, err := strconv.Unquote(s[:i+2])
			return lit, s[i+2:], err
		}
		return "", "", fmt.Errorf("unterminated string in %q", s)
	}
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			lit, err := strconv.Unquote(s[:i+1])
			return lit, s[i+1:], err
		}
	}
	return "", "", fmt.Errorf("unterminated string in %q", s)
}
