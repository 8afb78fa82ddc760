package oneport_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// gateLine matches a CI command that runs named tests: the -run regex in
// single quotes, then the rest of the line (further flags and packages).
var gateLine = regexp.MustCompile(`go test\b.*\s-run '([^']*)'(.*)$`)

// TestCIGateNames checks the named gates of the CI workflow. `go test -run
// NoSuchTest` passes without running anything, so a gate whose name was
// misspelt or whose test was renamed would pass silently. Every
// alternative of each `go test … -run '<regex>' <packages>` line but
// '^$' must match a Test or Fuzz function in those packages' _test.go
// files.
func TestCIGateNames(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	gates, alts := 0, 0
	for i, line := range strings.Split(string(data), "\n") {
		m := gateLine.FindStringSubmatch(line)
		if m == nil || m[1] == "^$" {
			continue
		}
		gates++
		var pkgs, names []string
		for _, arg := range strings.Fields(m[2]) {
			if strings.HasPrefix(arg, "-") {
				continue
			}
			if !strings.HasPrefix(arg, ".") || strings.Contains(arg, "...") {
				t.Fatalf("ci.yml:%d: package %q is not a plain relative directory", i+1, arg)
			}
			pkgs = append(pkgs, arg)
			names = append(names, testFuncs(t, arg)...)
		}
		// -run splits its regex at top-level slashes, one element per level
		// of subtests: the first element selects the top-level functions
		for _, alt := range splitTop(splitTop(m[1], '/')[0], '|') {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Fatalf("ci.yml:%d: %v", i+1, err)
			}
			alts++
			if !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("ci.yml:%d: -run alternative %q matches no test in %v", i+1, alt, pkgs)
			}
		}
	}
	if gates == 0 {
		t.Fatal("ci.yml has no go test line with a named -run gate")
	}
	t.Logf("checked %d gated go test lines, %d -run alternatives", gates, alts)
}

// testFuncs returns the names of the Test and Fuzz functions declared in
// the _test.go files of directory dir.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, fn := range f.Decls {
			if name, ok := testFuncName(fn); ok {
				names = append(names, name)
			}
		}
	}
	return names
}

// testFuncName reports the name of decl when it is a top-level function go
// test runs: Test or Fuzz followed by nothing or by a non-lower-case
// character.
func testFuncName(decl ast.Decl) (string, bool) {
	fn, ok := decl.(*ast.FuncDecl)
	if !ok || fn.Recv != nil {
		return "", false
	}
	name := fn.Name.Name
	for _, prefix := range []string{"Test", "Fuzz"} {
		if rest, ok := strings.CutPrefix(name, prefix); ok {
			r, _ := utf8.DecodeRuneInString(rest)
			return name, rest == "" || !unicode.IsLower(r)
		}
	}
	return "", false
}

// splitTop splits regex re at every sep outside brackets, parentheses and
// escapes.
func splitTop(re string, sep byte) []string {
	var out []string
	depth, class, start := 0, false, 0
	for i := 0; i < len(re); i++ {
		switch c := re[i]; {
		case c == '\\':
			i++
		case class:
			class = c != ']'
		case c == '[':
			class = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == sep && depth == 0:
			out = append(out, re[start:i])
			start = i + 1
		}
	}
	return append(out, re[start:])
}
