package bench

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestEveryFuzzerRuns keeps the two fuzz lists — CI's fuzz-smoke step
// and `make fuzz` — from drifting off the fuzzers: every `func Fuzz*`
// in a test file must be run by both, each against its own package.
func TestEveryFuzzerRuns(t *testing.T) {
	read := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	// section returns the lines of doc from the first one containing
	// start up to the next one matching end.
	section := func(name, doc, start string, end *regexp.Regexp) string {
		at := strings.Index(doc, start)
		if at < 0 {
			t.Fatalf("%s: %q not found", name, start)
		}
		body := doc[at+len(start):]
		if loc := end.FindStringIndex(body); loc != nil {
			body = body[:loc[0]]
		}
		return body
	}
	run := regexp.MustCompile(`go test -fuzz=(\w+) -fuzztime=\S+ (\S+)`)
	runs := func(body string) map[string]bool {
		set := make(map[string]bool)
		for _, m := range run.FindAllStringSubmatch(body, -1) {
			set[m[1]+" "+filepath.Clean(m[2])] = true
		}
		return set
	}
	lists := []struct {
		name string
		runs map[string]bool
	}{
		{"CI fuzz smoke", runs(section(".github/workflows/ci.yml", read(".github/workflows/ci.yml"),
			"- name: Fuzz smoke", regexp.MustCompile(`\n\s*- \w+:`)))},
		{"make fuzz", runs(section("Makefile", read("Makefile"), "\nfuzz:", regexp.MustCompile(`\n\n`)))},
	}

	fuzzer := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	found := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		for _, m := range fuzzer.FindAllStringSubmatch(read(path), -1) {
			found++
			key := m[1] + " " + filepath.Dir(path)
			for _, l := range lists {
				if !l.runs[key] {
					t.Errorf("%s does not run %s of %s", l.name, m[1], path)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("no fuzzers found")
	}
}
