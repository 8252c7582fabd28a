package bench

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/chaos"
	"github.com/tsnbuilder/tsnbuilder/internal/experiments"
)

// TestCatalogMatchesDocs keeps the copies of the study list from
// drifting off experiments.Catalog: every id has its `tsnbench -exp`
// line in EXPERIMENTS.md and its row in DESIGN.md §6 — with the entry's
// paper anchor and benchmark on it — no doc names an id the catalog
// lacks, and every benchmark an entry names exists in bench_test.go.
func TestCatalogMatchesDocs(t *testing.T) {
	read := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	expDoc, design, benches := read("EXPERIMENTS.md"), read("DESIGN.md"), read("bench_test.go")
	start, end := strings.Index(design, "\n## 6. "), strings.Index(design, "\n## 7. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md: §6 not found")
	}
	index := strings.Split(design[start:end], "\n")

	ids := map[string]bool{"all": true}
	for _, st := range experiments.Catalog {
		ids[st.ID] = true
		cmd := "`tsnbench -exp " + st.ID + "`"
		if !strings.Contains(expDoc, cmd) {
			t.Errorf("EXPERIMENTS.md has no %s", cmd)
		}
		row := ""
		for _, line := range index {
			if strings.Contains(line, cmd) {
				row = line
			}
		}
		switch {
		case row == "":
			t.Errorf("DESIGN.md §6 has no row with %s", cmd)
		case !strings.Contains(row, st.Anchor):
			t.Errorf("DESIGN.md §6 row of %s does not carry its anchor %q", st.ID, st.Anchor)
		case st.Bench != "" && !strings.Contains(row, "`"+st.Bench+"`"):
			t.Errorf("DESIGN.md §6 row of %s does not name its benchmark %s", st.ID, st.Bench)
		}
		if st.Bench != "" && !strings.Contains(benches, "func "+st.Bench+"(") {
			t.Errorf("bench_test.go has no func %s for catalog entry %s", st.Bench, st.ID)
		}
	}
	expFlag := regexp.MustCompile("tsnbench -exp ([a-z0-9]+)")
	for name, doc := range map[string]string{"EXPERIMENTS.md": expDoc, "DESIGN.md": design, "README.md": read("README.md")} {
		for _, m := range expFlag.FindAllStringSubmatch(doc, -1) {
			if !ids[m[1]] {
				t.Errorf("%s: `tsnbench -exp %s` names no catalog id", name, m[1])
			}
		}
	}
}

// TestOraclesMatchDesign keeps DESIGN.md §13's oracle table the list
// chaos.Oracles() returns: a row per oracle, and no row for another.
func TestOraclesMatchDesign(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	start, end := strings.Index(string(design), "\n## 13. "), strings.Index(string(design), "\n## 14. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md: §13 not found")
	}
	var rows []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z-]+)` \\|").FindAllStringSubmatch(string(design[start:end]), -1) {
		rows = append(rows, m[1])
	}
	want := chaos.Oracles()
	slices.Sort(rows)
	slices.Sort(want)
	if !slices.Equal(rows, want) {
		t.Errorf("DESIGN.md §13 has rows for %q; chaos.Oracles() is %q", rows, want)
	}
}

// TestExamplesMatchReadme keeps examples/README.md's table the list of
// runnable examples: its names are exactly the directories under
// examples/ that hold a main.go, which is what `make examples` runs.
func TestExamplesMatchReadme(t *testing.T) {
	readme, err := os.ReadFile("examples/README.md")
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([^`]+)` \\|").FindAllStringSubmatch(string(readme), -1) {
		listed = append(listed, m[1])
	}
	mains, err := filepath.Glob("examples/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, m := range mains {
		dirs = append(dirs, filepath.Base(filepath.Dir(m)))
	}
	slices.Sort(listed)
	if !slices.Equal(listed, dirs) {
		t.Errorf("examples/README.md lists %q; examples/*/main.go are %q", listed, dirs)
	}
}
