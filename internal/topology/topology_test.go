package topology

import (
	"testing"
)

func TestStarShape(t *testing.T) {
	s := Star(3)
	if s.N != 4 || s.EnabledTSNPorts != 3 {
		t.Fatalf("star: N=%d enabled=%d", s.N, s.EnabledTSNPorts)
	}
	// Core has ports 0,1,2 toward children 1,2,3.
	for c := 1; c <= 3; c++ {
		p, ok := s.PortToward(0, c)
		if !ok || p.Port != c-1 {
			t.Fatalf("core port toward %d = (%d,%v)", c, p, ok)
		}
		if p, ok := s.PortToward(c, 0); !ok || p.Port != 0 {
			t.Fatalf("child %d uplink = (%d,%v)", c, p, ok)
		}
	}
	if len(s.TrunkLinks()) != 3 {
		t.Fatalf("links = %d", len(s.TrunkLinks()))
	}
}

func TestStarPath(t *testing.T) {
	s := Star(3)
	p, err := s.Router().Path(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 0, 3}
	if len(p) != 3 || p[0] != 1 || p[1] != 0 || p[2] != 3 {
		t.Fatalf("path = %v, want %v", p, want)
	}
}

func TestRingShape(t *testing.T) {
	r := Ring(6)
	if r.N != 6 || r.EnabledTSNPorts != 1 {
		t.Fatalf("ring: N=%d enabled=%d", r.N, r.EnabledTSNPorts)
	}
	// Every switch's trunk out is port 0.
	for i := 0; i < 6; i++ {
		p, ok := r.PortToward(i, (i+1)%6)
		if !ok || p.Port != 0 {
			t.Fatalf("sw%d trunk = (%d,%v)", i, p, ok)
		}
		// No reverse edge in a unidirectional ring.
		if _, ok := r.PortToward((i+1)%6, i); ok {
			t.Fatalf("ring has reverse edge %d->%d", (i+1)%6, i)
		}
	}
	if len(r.TrunkLinks()) != 6 {
		t.Fatalf("links = %d", len(r.TrunkLinks()))
	}
	// RX side of each cable is port 1.
	for _, l := range r.TrunkLinks() {
		if l.B.Port != 1 {
			t.Fatalf("ring rx port = %d, want 1", l.B.Port)
		}
	}
}

func TestRingPathFollowsDirection(t *testing.T) {
	r := Ring(6)
	p, err := r.Router().Path(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4, 5, 0, 1}
	if len(p) != len(want) {
		t.Fatalf("path = %v, want %v", p, want)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path = %v, want %v", p, want)
		}
	}
}

func TestLinearShape(t *testing.T) {
	l := Linear(6)
	if l.N != 6 || l.EnabledTSNPorts != 2 {
		t.Fatalf("linear: N=%d enabled=%d", l.N, l.EnabledTSNPorts)
	}
	if len(l.TrunkLinks()) != 5 {
		t.Fatalf("links = %d", len(l.TrunkLinks()))
	}
	// Bidirectional edges exist.
	if _, ok := l.PortToward(2, 3); !ok {
		t.Fatal("missing forward edge")
	}
	if _, ok := l.PortToward(3, 2); !ok {
		t.Fatal("missing reverse edge")
	}
}

func TestLinearPath(t *testing.T) {
	l := Linear(6)
	p, err := l.Router().Path(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{5, 4, 3, 2}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path = %v, want %v", p, want)
		}
	}
}

func TestPathSameSwitch(t *testing.T) {
	l := Linear(3)
	p, err := l.Router().Path(1, 1)
	if err != nil || len(p) != 1 || p[0] != 1 {
		t.Fatalf("self path = %v, %v", p, err)
	}
}

func TestPathErrors(t *testing.T) {
	l := Linear(3)
	if _, err := l.Router().Path(-1, 2); err == nil {
		t.Fatal("out-of-range path accepted")
	}
	if _, err := l.Router().Path(0, 9); err == nil {
		t.Fatal("out-of-range dst accepted")
	}
}

func TestAttachHost(t *testing.T) {
	r := Ring(3)
	a := r.AttachHost(100, 0)
	// Ring switch 0: port 0 trunk out, port 1 trunk rx, host gets 2.
	if a.Switch != 0 || a.Port != 2 {
		t.Fatalf("attach = %+v", a)
	}
	// Idempotent.
	if b := r.AttachHost(100, 0); b != a {
		t.Fatalf("re-attach moved host: %+v vs %+v", b, a)
	}
	// Second host gets the next port.
	c := r.AttachHost(101, 0)
	if c.Port != 3 {
		t.Fatalf("second host port = %d", c.Port)
	}
	if len(r.Hosts()) != 2 {
		t.Fatalf("Hosts = %v", r.Hosts())
	}
}

func TestHostPath(t *testing.T) {
	s := Star(3)
	s.AttachHost(1, 1)
	s.AttachHost(2, 3)
	p, err := s.Router().HostPath(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 || p[0] != 1 || p[1] != 0 || p[2] != 3 {
		t.Fatalf("host path = %v", p)
	}
	if _, err := s.Router().HostPath(1, 99); err == nil {
		t.Fatal("unattached host accepted")
	}
}

func TestPortCount(t *testing.T) {
	r := Ring(3)
	r.AttachHost(7, 1)
	if r.PortCount(1) != 3 { // trunk out + trunk rx + host
		t.Fatalf("PortCount = %d", r.PortCount(1))
	}
	if r.PortCount(2) != 2 {
		t.Fatalf("PortCount(2) = %d", r.PortCount(2))
	}
}

func TestTreeShape(t *testing.T) {
	// Root + 2 spines + 2×3 leaves = 9 switches.
	tr := Tree(2, 3)
	if tr.N != 9 {
		t.Fatalf("N = %d, want 9", tr.N)
	}
	if tr.Kind != KindTree || tr.Kind.String() != "tree" {
		t.Fatalf("kind = %v", tr.Kind)
	}
	// Spine enabled ports: 3 downlinks + 1 uplink = 4 > root's 2.
	if tr.EnabledTSNPorts != 4 {
		t.Fatalf("enabled = %d, want 4", tr.EnabledTSNPorts)
	}
	// 2 root links + 6 spine-leaf links.
	if len(tr.TrunkLinks()) != 8 {
		t.Fatalf("links = %d", len(tr.TrunkLinks()))
	}
	// Leaf-to-leaf across spines goes leaf→spine→root→spine→leaf.
	p, err := tr.Router().Path(3, 8) // a leaf of spine 1 to a leaf of spine 2
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 5 || p[0] != 3 || p[2] != 0 || p[4] != 8 {
		t.Fatalf("cross-spine path = %v", p)
	}
	// Sibling leaves go through their spine only.
	p, err = tr.Router().Path(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 || p[1] != 1 {
		t.Fatalf("sibling path = %v", p)
	}
}

func TestTreeHostsAndPorts(t *testing.T) {
	tr := Tree(2, 2)
	// Leaf switch 3: uplink port 0, host gets port 1.
	a := tr.AttachHost(100, 3)
	if a.Port != 1 {
		t.Fatalf("leaf host port = %d", a.Port)
	}
	// Spine 1: uplink + 2 downlinks = ports 0..2, host gets 3.
	b := tr.AttachHost(101, 1)
	if b.Port != 3 {
		t.Fatalf("spine host port = %d", b.Port)
	}
}

func TestTreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Tree(0,...) did not panic")
		}
	}()
	Tree(0, 2)
}

func TestBuilderPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"star0":   func() { Star(0) },
		"ring2":   func() { Ring(2) },
		"linear1": func() { Linear(1) },
		"attach":  func() { Ring(3).AttachHost(1, 9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestKindString(t *testing.T) {
	if KindStar.String() != "star" || KindRing.String() != "ring" || KindLinear.String() != "linear" {
		t.Fatal("kind names wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatal("unknown kind formatting")
	}
}

func TestRingBidir(t *testing.T) {
	r := RingBidir(5)
	if r.EnabledTSNPorts != 2 {
		t.Fatalf("EnabledTSNPorts = %d, want 2", r.EnabledTSNPorts)
	}
	if got := len(r.TrunkLinks()); got != 5 {
		t.Fatalf("links = %d, want 5", got)
	}
	// Clockwise on port 0, counter-clockwise on port 1, everywhere.
	for i := 0; i < 5; i++ {
		if p, _ := r.PortToward(i, (i+1)%5); p.Port != 0 {
			t.Fatalf("sw%d clockwise port = %d, want 0", i, p)
		}
		if p, _ := r.PortToward(i, (i+4)%5); p.Port != 1 {
			t.Fatalf("sw%d counter-clockwise port = %d, want 1", i, p)
		}
	}
	// Shortest path goes the short way round.
	path, err := r.Router().Path(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 || path[1] != 4 {
		t.Fatalf("Path(0,4) = %v, want [0 4]", path)
	}
}

func TestRingBidirDisjointPaths(t *testing.T) {
	r := RingBidir(6)
	pri, alt, err := r.DisjointPaths(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantPri := []int{0, 1, 2, 3}
	wantAlt := []int{0, 5, 4, 3}
	for i := range wantPri {
		if pri[i] != wantPri[i] {
			t.Fatalf("primary = %v, want %v", pri, wantPri)
		}
	}
	for i := range wantAlt {
		if alt[i] != wantAlt[i] {
			t.Fatalf("alternate = %v, want %v", alt, wantAlt)
		}
	}
	// Link-disjoint: no shared interior hop pair.
	seen := map[[2]int]bool{}
	for i := 0; i+1 < len(pri); i++ {
		seen[[2]int{pri[i], pri[i+1]}] = true
	}
	for i := 0; i+1 < len(alt); i++ {
		hop := [2]int{alt[i], alt[i+1]}
		rev := [2]int{alt[i+1], alt[i]}
		if seen[hop] || seen[rev] {
			t.Fatalf("paths share link %v", hop)
		}
	}
}

func TestDisjointPathsErrors(t *testing.T) {
	if _, _, err := Ring(4).DisjointPaths(0, 2); err == nil {
		t.Fatal("unidirectional ring accepted disjoint paths")
	}
	r := RingBidir(4)
	if _, _, err := r.DisjointPaths(1, 1); err == nil {
		t.Fatal("same-endpoint disjoint paths accepted")
	}
	if _, _, err := r.DisjointPaths(0, 9); err == nil {
		t.Fatal("out-of-range disjoint paths accepted")
	}
}

func TestRingBidirHostDisjointPaths(t *testing.T) {
	r := RingBidir(4)
	r.AttachHost(100, 0)
	r.AttachHost(101, 2)
	pri, alt, err := r.DisjointHostPaths(100, 101)
	if err != nil {
		t.Fatal(err)
	}
	if len(pri) != 3 || len(alt) != 3 || pri[1] == alt[1] {
		t.Fatalf("host disjoint paths wrong: %v / %v", pri, alt)
	}
	if _, _, err := r.DisjointHostPaths(100, 999); err == nil {
		t.Fatal("unattached host accepted")
	}
}

// TestFloorIsWhereTheConstructorPanics: each shape's floor is the
// smallest switch count its constructor takes — one less panics — so
// New refuses exactly what the constructors cannot build. The fat-tree
// constructor rounds any count up and never panics.
func TestFloorIsWhereTheConstructorPanics(t *testing.T) {
	for k, s := range shapes {
		name := Names[k]
		if got, err := Parse(name); err != nil || got != Kind(k) || got.String() != name {
			t.Fatalf("Parse(%q) = %v, %v", name, got, err)
		}
		if topo, err := New(name, s.floor); err != nil || topo.Kind != Kind(k) {
			t.Errorf("%s at its floor %d: %v", name, s.floor, err)
		}
		if _, err := New(name, s.floor-1); err == nil {
			t.Errorf("%s below its floor built", name)
		}
		if Kind(k) == KindFatTree {
			continue
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: constructor took %d switches, below the floor %d", name, s.floor-1, s.floor)
				}
			}()
			s.build(s.floor - 1)
		}()
	}
	if _, err := New("moebius", 6); err == nil {
		t.Fatal("unknown topology built")
	}
}
