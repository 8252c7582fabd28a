package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/experiments"
)

// TestGoldenOutput pins what tsnbench prints and writes: every
// experiment id except scale, at ShortParams, against the files under
// testdata/ (`make golden` regenerates them; a deliberate output change
// must say so). scale prints wall-clock columns, so it is checked by
// TestScaleParity instead.
func TestGoldenOutput(t *testing.T) {
	csvOut = t.TempDir()
	defer func() { csvOut = "" }()
	var stdout bytes.Buffer
	for _, id := range strings.Fields(expIDs) {
		if id == "all" || id == "scale" {
			continue
		}
		if err := run(&stdout, id, experiments.ShortParams()); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	sameAsGolden(t, "stdout.txt", stdout.Bytes())
	want, _ := filepath.Glob("testdata/*.csv")
	got, _ := filepath.Glob(filepath.Join(csvOut, "*"))
	if len(want) != 10 || len(got) != len(want) {
		t.Fatalf("%d CSV files written, %d under testdata/, want 10 of each", len(got), len(want))
	}
	for _, path := range got {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sameAsGolden(t, filepath.Base(path), data)
	}
}

func sameAsGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from testdata/%s:\n%s", name, name, got)
	}
}

// TestScaleParity is scale's share of the pin: one row per partition
// count, and the event count, delivered frames and worst TS latency of
// every row equal to the serial row's.
func TestScaleParity(t *testing.T) {
	rows, err := experiments.ScaleStudy(experiments.ShortParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(experiments.ScalePartitionCounts) {
		t.Fatalf("%d rows, want %d", len(rows), len(experiments.ScalePartitionCounts))
	}
	for _, r := range rows {
		if r.Events == 0 || r.Events != rows[0].Events || r.Delivered != rows[0].Delivered || r.TSMax != rows[0].TSMax {
			t.Errorf("partitions=%d: events %d delivered %d tsmax %v, serial row %d %d %v",
				r.Partitions, r.Events, r.Delivered, r.TSMax, rows[0].Events, rows[0].Delivered, rows[0].TSMax)
		}
	}
}
