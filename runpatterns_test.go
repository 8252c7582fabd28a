package bench

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestEveryRunPatternMatches keeps the `go test … -run '…'` steps of
// CI and the Makefile from silently running nothing after a rename:
// every top-level alternative of every -run pattern must match a
// Test, Fuzz, Benchmark or Example function of a package its command
// names. '^$' (run no tests) is exempt, and a subtest path such as
// TestInjectAllocs/recycled is checked by its top-level name.
func TestEveryRunPatternMatches(t *testing.T) {
	command := regexp.MustCompile(`go test((?:[ \t]+(?:'[^'\n]*'|[^\s'&;|)]+))+)`)
	token := regexp.MustCompile(`'[^']*'|\S+`)
	checked := 0
	for _, file := range []string{".github/workflows/ci.yml", "Makefile"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range command.FindAllStringSubmatch(string(data), -1) {
			var pattern string
			var pkgs []string
			args := token.FindAllString(m[1], -1)
			for i := 0; i < len(args); i++ {
				switch a := args[i]; {
				case a == "-run" && i+1 < len(args):
					i++
					pattern = strings.Trim(args[i], "'")
				case strings.HasPrefix(a, "-run="):
					pattern = strings.Trim(strings.TrimPrefix(a, "-run="), "'")
				case a == "." || strings.HasPrefix(a, "./"):
					pkgs = append(pkgs, a)
				}
			}
			if pattern == "" || pattern == "^$" {
				continue
			}
			names := testFuncs(t, pkgs)
			for _, alt := range alternatives(pattern) {
				top, _, _ := strings.Cut(alt, "/")
				re, err := regexp.Compile(top)
				if err != nil {
					t.Errorf("%s: -run alternative %q: %v", file, alt, err)
					continue
				}
				if !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("%s: -run alternative %q matches no test of %v", file, alt, pkgs)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no -run alternatives found")
	}
}

// alternatives splits a regexp at its top-level '|'s.
func alternatives(pattern string) []string {
	var out []string
	depth, start := 0, 0
	for i, r := range pattern {
		switch r {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(out, pattern[start:])
}

// testFuncs lists the Test/Fuzz/Benchmark/Example functions declared in
// the test files of the package directories pkgs ("./..." recursing).
func testFuncs(t *testing.T, pkgs []string) []string {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
	var names []string
	for _, p := range pkgs {
		dir, recurse := strings.CutSuffix(p, "/...")
		err := filepath.WalkDir(filepath.Clean(dir), func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != filepath.Clean(dir) && (!recurse || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, "_test.go") {
				data, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				for _, m := range decl.FindAllStringSubmatch(string(data), -1) {
					names = append(names, m[1])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}
