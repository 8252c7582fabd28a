package flows

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/israce"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

func TestGenerateTSWorkload(t *testing.T) {
	specs := GenerateTS(TSParams{
		Count:    1024,
		Period:   10 * sim.Millisecond,
		WireSize: 64,
		VID:      1,
		Hosts:    func(i int) (int, int) { return 100, 200 },
		Seed:     1,
	})
	if len(specs) != 1024 {
		t.Fatalf("count = %d", len(specs))
	}
	deadlines := map[sim.Time]int{}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if s.Class != ethernet.ClassTS || s.Period != 10*sim.Millisecond || s.WireSize != 64 {
			t.Fatalf("spec = %+v", s)
		}
		deadlines[s.Deadline]++
	}
	// All four deadline classes should appear in 1024 draws.
	if len(deadlines) != len(DeadlineSet) {
		t.Fatalf("deadline classes drawn = %d, want %d", len(deadlines), len(DeadlineSet))
	}
	for _, d := range DeadlineSet {
		if deadlines[d] == 0 {
			t.Fatalf("deadline %v never drawn", d)
		}
	}
}

func TestGenerateTSDeterministic(t *testing.T) {
	gen := func() []*Spec {
		return GenerateTS(TSParams{
			Count: 10, Period: sim.Millisecond, WireSize: 128,
			Hosts: func(i int) (int, int) { return i, i + 1 },
			Seed:  7,
		})
	}
	a, b := gen(), gen()
	for i := range a {
		if a[i].Deadline != b[i].Deadline {
			t.Fatal("generation not deterministic")
		}
	}
}

// TestGenerateTSAllocs: the specs share one backing array, so the
// allocation count does not grow with Count.
func TestGenerateTSAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	allocs := func(n int) float64 {
		p := TSParams{Count: n, Period: sim.Millisecond, WireSize: 128,
			Hosts: func(i int) (int, int) { return i, i + 1 }, Seed: 7}
		return testing.AllocsPerRun(20, func() { GenerateTS(p) })
	}
	if small, large := allocs(64), allocs(440); small != large {
		t.Fatalf("GenerateTS allocates %v times for 64 flows, %v for 440", small, large)
	}
}

func TestBackgroundFlow(t *testing.T) {
	s := Background(5000, ethernet.ClassRC, 1, 2, 1, 100*ethernet.Mbps)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.WireSize != 1024 {
		t.Fatalf("background wire size = %d, want 1024 (paper)", s.WireSize)
	}
	if s.PCP != 5 {
		t.Fatalf("RC PCP = %d", s.PCP)
	}
	// Pacing: 1044B per frame at 100 Mbps ≈ 83.52 µs.
	iv := s.FrameInterval()
	if iv < 83*sim.Microsecond || iv > 84*sim.Microsecond {
		t.Fatalf("FrameInterval = %v", iv)
	}
}

func TestBackgroundPanicsOnTS(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Background with TS class did not panic")
		}
	}()
	Background(1, ethernet.ClassTS, 1, 2, 1, ethernet.Mbps)
}

func TestValidateErrors(t *testing.T) {
	bad := []*Spec{
		{ID: 1, Class: ethernet.ClassTS, WireSize: 10, Period: sim.Millisecond},   // tiny frame
		{ID: 2, Class: ethernet.ClassTS, WireSize: 9000, Period: sim.Millisecond}, // jumbo
		{ID: 3, Class: ethernet.ClassTS, WireSize: 64},                            // no period
		{ID: 4, Class: ethernet.ClassRC, WireSize: 64},                            // no rate
		{ID: 5, Class: ethernet.Class(9), WireSize: 64},                           // unknown class
		{ID: 6, Class: ethernet.ClassTS, WireSize: 64, Period: 100, Offset: 200},  // offset >= period
		{ID: 7, Class: ethernet.ClassTS, WireSize: 64, Period: 100, Offset: -1},   // negative offset
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d validated: %+v", s.ID, s)
		}
	}
	good := &Spec{ID: 8, Class: ethernet.ClassTS, WireSize: 64, Period: 100, Offset: 50}
	if err := good.Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
}

func TestFrameIntervalTS(t *testing.T) {
	s := &Spec{Class: ethernet.ClassTS, Period: 10 * sim.Millisecond}
	if s.FrameInterval() != 10*sim.Millisecond {
		t.Fatal("TS interval must equal period")
	}
}

func TestPCPFor(t *testing.T) {
	if PCPFor(ethernet.ClassTS) != 7 || PCPFor(ethernet.ClassRC) != 5 || PCPFor(ethernet.ClassBE) != 0 {
		t.Fatal("PCP mapping wrong")
	}
}

func TestSplitMulticast(t *testing.T) {
	tmpl := &Spec{
		ID: 100, Class: ethernet.ClassTS, SrcHost: 1,
		WireSize: 64, Period: sim.Millisecond, VID: 9,
		Path: []int{1, 2, 3},
	}
	out := SplitMulticast(tmpl, []int{10, 11, 12})
	if len(out) != 3 {
		t.Fatalf("split = %d specs", len(out))
	}
	for i, s := range out {
		if s.ID != uint32(100+i) || s.DstHost != 10+i {
			t.Fatalf("spec %d = %+v", i, s)
		}
		if s.Path != nil {
			t.Fatal("path must be cleared for re-binding")
		}
		if s.VID != 9 || s.Period != sim.Millisecond || s.SrcHost != 1 {
			t.Fatal("template fields not copied")
		}
	}
	// The template itself is untouched.
	if tmpl.DstHost != 0 || len(tmpl.Path) != 3 {
		t.Fatal("template mutated")
	}
}

func TestSplitMulticastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty destination set did not panic")
		}
	}()
	SplitMulticast(&Spec{}, nil)
}

func TestGenerateTSPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid TSParams did not panic")
		}
	}()
	GenerateTS(TSParams{Count: 0})
}
