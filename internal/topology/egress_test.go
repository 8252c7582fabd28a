package topology

import (
	"fmt"
	"strings"
	"testing"
)

// boundShapes builds every shape of Names at its floor and at 12
// switches, with two hosts on every switch (host 2s and 2s+1 on s).
func boundShapes(t *testing.T) map[string]*Topology {
	t.Helper()
	out := map[string]*Topology{}
	for _, name := range Names {
		k, _ := Parse(name)
		for _, n := range []int{k.Floor(), 12} {
			topo, err := New(name, n)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < topo.N; s++ {
				topo.AttachHost(2*s, s)
				topo.AttachHost(2*s+1, s)
			}
			out[fmt.Sprintf("%s/%d", name, n)] = topo
		}
	}
	return out
}

// TestPortIndexDense: the trunk ends and host attachments are every
// port of the network once — one per (switch, port), as many as
// PortCount says — and their indices are 0 … Ports()-1, each once.
func TestPortIndexDense(t *testing.T) {
	for name, topo := range boundShapes(t) {
		var ports []Attach
		for _, l := range topo.TrunkLinks() {
			ports = append(ports, l.A, l.B)
		}
		for _, h := range topo.Hosts() {
			at, _ := topo.HostAttach(h)
			ports = append(ports, at)
		}
		sum := 0
		for s := 0; s < topo.N; s++ {
			sum += topo.PortCount(s)
		}
		if len(ports) != topo.Ports() || sum != topo.Ports() {
			t.Fatalf("%s: %d trunk ends and hosts, %d ports by PortCount, Ports() = %d", name, len(ports), sum, topo.Ports())
		}
		byIndex := make([]bool, topo.Ports())
		local := map[[2]int]bool{}
		for _, a := range ports {
			if a.Index < 0 || a.Index >= topo.Ports() || byIndex[a.Index] {
				t.Fatalf("%s: port %+v: index out of range or taken", name, a)
			}
			if a.Port >= topo.PortCount(a.Switch) || local[[2]int{a.Switch, a.Port}] {
				t.Fatalf("%s: port %+v: local number out of range or taken", name, a)
			}
			byIndex[a.Index], local[[2]int{a.Switch, a.Port}] = true, true
		}
	}
}

// TestEgressMatchesPortToward: on every path BindPaths binds — the
// routed path of every host pair, and on the bidirectional ring both
// disjoint member paths — Egress names the trunk PortToward names and,
// at the last hop, the destination host's attachment, with the index
// of that trunk end or attachment.
func TestEgressMatchesPortToward(t *testing.T) {
	for name, topo := range boundShapes(t) {
		index := map[[2]int]int{}
		for _, l := range topo.TrunkLinks() {
			index[[2]int{l.A.Switch, l.A.Port}], index[[2]int{l.B.Switch, l.B.Port}] = l.A.Index, l.B.Index
		}
		r := topo.Router()
		for _, src := range topo.Hosts() {
			for _, dst := range topo.Hosts() {
				path, err := r.HostPath(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				paths := [][]int{path}
				if topo.Kind == KindRingBidir && len(path) > 1 {
					pri, alt, err := topo.DisjointHostPaths(src, dst)
					if err != nil {
						t.Fatal(err)
					}
					paths = append(paths, pri, alt)
				}
				for _, p := range paths {
					for h, sw := range p {
						got, err := topo.Egress(p, dst, h)
						if err != nil {
							t.Fatalf("%s: path %v to host %d, hop %d: %v", name, p, dst, h, err)
						}
						want := Hop{Next: -(dst + 2)}
						if h+1 < len(p) {
							port, ok := topo.PortToward(sw, p[h+1])
							if !ok {
								t.Fatalf("%s: no trunk %d->%d on a bound path", name, sw, p[h+1])
							}
							want = Hop{Attach: Attach{Switch: sw, Port: port.Port, Index: index[[2]int{sw, port.Port}]}, Next: p[h+1]}
						} else {
							want.Attach, _ = topo.HostAttach(dst)
						}
						if got != want {
							t.Fatalf("%s: path %v to host %d, hop %d: Egress %+v, want %+v", name, p, dst, h, got, want)
						}
					}
				}
			}
		}
	}
}

// TestEgressErrors: a hop pair without a trunk, a path ending off the
// destination host's switch, an unattached host and a switch out of
// range are each refused with the resolver's words.
func TestEgressErrors(t *testing.T) {
	topo := Linear(4)
	topo.AttachHost(100, 3)
	for _, tc := range []struct {
		path []int
		dst  int
		h    int
		want string
	}{
		{[]int{0, 2, 3}, 100, 0, "topology: no trunk 0->2"},
		{[]int{0, 1, 2}, 100, 2, "topology: path ends at switch 2 but host 100 is on 3"},
		{[]int{2, 3}, 101, 1, "topology: host 101 not attached"},
		{[]int{7, 3}, 100, 0, "topology: no trunk 7->3"},
	} {
		_, err := topo.Egress(tc.path, tc.dst, tc.h)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Egress(%v, %d, %d) = %v, want %q", tc.path, tc.dst, tc.h, err, tc.want)
		}
	}
}
