package topology

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// refTopology is Topology's port bookkeeping as it stood before the
// trunks and the host attachments moved into presized arrays, kept as
// the oracle: one neighbor-sorted trunk slice per switch, grown by
// slices.Insert, and a map of host attachments.
type refTopology struct {
	N int
	// adj[sw] lists sw's trunks in ascending neighbor order.
	adj [][]refTrunk
	// nextPort[sw] = next unallocated port index.
	nextPort []int
	// ports counts the ports allocated network-wide: the next Index.
	ports int
	// hostPort[host] = attachment point.
	hostPort map[int]Attach
}

// refTrunk is one direction of an inter-switch link: the output port
// toward neighbor to, and that port's Index.
type refTrunk struct{ to, port, index int32 }

// port allocates sw's next port.
func (t *refTopology) port(sw int) Attach {
	a := Attach{Switch: sw, Port: t.nextPort[sw], Index: t.ports}
	t.nextPort[sw]++
	t.ports++
	return a
}

// addTrunk allocates the next port on sw toward neighbor.
func (t *refTopology) addTrunk(sw, neighbor int) Attach {
	a := t.port(sw)
	at, _ := slices.BinarySearchFunc(t.adj[sw], int32(neighbor), func(e refTrunk, to int32) int { return int(e.to - to) })
	t.adj[sw] = slices.Insert(t.adj[sw], at, refTrunk{to: int32(neighbor), port: int32(a.Port), index: int32(a.Index)})
	return a
}

// AttachHost allocates an access port for host on switch sw.
func (t *refTopology) AttachHost(host, sw int) Attach {
	if sw < 0 || sw >= t.N {
		panic(fmt.Sprintf("topology: switch %d out of range", sw))
	}
	if a, ok := t.hostPort[host]; ok {
		return a
	}
	a := t.port(sw)
	t.hostPort[host] = a
	return a
}

// Hosts returns all attached host IDs.
func (t *refTopology) Hosts() []int {
	out := make([]int, 0, len(t.hostPort))
	for h := range t.hostPort {
		out = append(out, h)
	}
	return out
}

// PortToward returns sw's output port toward direct neighbor next.
func (t *refTopology) PortToward(sw, next int) (Attach, bool) {
	if sw >= 0 && sw < t.N {
		for _, e := range t.adj[sw] {
			if int(e.to) == next {
				return Attach{Switch: sw, Port: int(e.port), Index: int(e.index)}, true
			}
		}
	}
	return Attach{}, false
}

// Egress resolves hop h of a bound path toward dstHost.
func (t *refTopology) Egress(path []int, dstHost, h int) (Hop, error) {
	sw := path[h]
	if h+1 < len(path) {
		a, ok := t.PortToward(sw, path[h+1])
		if !ok {
			return Hop{}, fmt.Errorf("topology: no trunk %d->%d", sw, path[h+1])
		}
		return Hop{Attach: a, Next: path[h+1]}, nil
	}
	a, ok := t.hostPort[dstHost]
	if !ok {
		return Hop{}, fmt.Errorf("topology: host %d not attached", dstHost)
	}
	if a.Switch != sw {
		return Hop{}, fmt.Errorf("topology: path ends at switch %d but host %d is on %d", sw, dstHost, a.Switch)
	}
	return Hop{Attach: a, Next: -(dstHost + 2)}, nil
}

// reference rebuilds topo's trunks on a refTopology. It replays the
// constructor's port allocations in Index order: both ends of every
// cable are trunks toward each other, except the receiving end of a
// unidirectional ring cable, a bare port. Each replayed port must be
// the one topo recorded for that cable end. Hosts are not replayed;
// the caller attaches them to both.
func reference(t testing.TB, topo *Topology) *refTopology {
	t.Helper()
	type end struct {
		at Attach
		to int // the neighbor a trunk leads to, -1: a bare port
	}
	var ends []end
	for _, l := range topo.TrunkLinks() {
		ends = append(ends, end{l.A, l.B.Switch})
		if topo.Kind == KindRing {
			ends = append(ends, end{l.B, -1})
		} else {
			ends = append(ends, end{l.B, l.A.Switch})
		}
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i].at.Index < ends[j].at.Index })
	ref := &refTopology{N: topo.N, adj: make([][]refTrunk, topo.N), nextPort: make([]int, topo.N), hostPort: map[int]Attach{}}
	for _, e := range ends {
		var got Attach
		if e.to < 0 {
			got = ref.port(e.at.Switch)
		} else {
			got = ref.addTrunk(e.at.Switch, e.to)
		}
		if got != e.at {
			t.Fatalf("%v/%d: replayed port %+v, topology recorded %+v", topo.Kind, topo.N, got, e.at)
		}
	}
	return ref
}

// referencePath is Topology.Path as it stood before Router: one
// early-exit BFS per (src, dst) pair, kept verbatim as the oracle —
// except that neighbors are read from the reference's trunk slices,
// and still sorted here so the oracle does not lean on their order.
func referencePath(t *refTopology, src, dst int) ([]int, error) {
	if src < 0 || src >= t.N || dst < 0 || dst >= t.N {
		return nil, fmt.Errorf("topology: path %d->%d out of range", src, dst)
	}
	if src == dst {
		return []int{src}, nil
	}
	prev := make([]int, t.N)
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = src
	queue := []int{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == dst {
			break
		}
		nbs := make([]int, 0, len(t.adj[cur]))
		for _, e := range t.adj[cur] {
			nbs = append(nbs, int(e.to))
		}
		sort.Ints(nbs)
		for _, nb := range nbs {
			if prev[nb] == -1 {
				prev[nb] = cur
				queue = append(queue, nb)
			}
		}
	}
	if prev[dst] == -1 {
		return nil, fmt.Errorf("topology: no path %d->%d", src, dst)
	}
	var rev []int
	for cur := dst; cur != src; cur = prev[cur] {
		rev = append(rev, cur)
	}
	rev = append(rev, src)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

// TestRouterMatchesPerPairBFS holds the per-source predecessor tree to
// the per-pair search on every shape, all pairs — the bidirectional
// ring, mesh and fat-tree have equal-length alternatives, so the
// tie-break is under test too — and checks that a repeated query
// returns the shared slice.
func TestRouterMatchesPerPairBFS(t *testing.T) {
	for _, tc := range []struct {
		name string
		topo *Topology
	}{
		{"ring", Ring(7)},
		{"bidir-ring-even", RingBidir(8)},
		{"bidir-ring-odd", RingBidir(7)},
		{"linear", Linear(9)},
		{"star", Star(6)},
		{"tree", Tree(2, 5)},
		{"mesh", Mesh(5, 6)},
		{"mesh210", MeshSquarish(210)},
		{"fattree", FatTree(4)},
	} {
		ref := reference(t, tc.topo)
		router := tc.topo.Router()
		for src := 0; src < tc.topo.N; src++ {
			for dst := 0; dst < tc.topo.N; dst++ {
				want, err := referencePath(ref, src, dst)
				if err != nil {
					t.Fatalf("%s: reference %d->%d: %v", tc.name, src, dst, err)
				}
				got, err := router.Path(src, dst)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: router %d->%d = %v, %v; per-pair BFS %v", tc.name, src, dst, got, err, want)
				}
				again, _ := router.Path(src, dst)
				if &again[0] != &got[0] {
					t.Fatalf("%s: %d->%d not shared between queries", tc.name, src, dst)
				}
			}
		}
	}
}

// TestMatchesReference builds every kind at 2..16 switches (from its
// floor up) with workload.Build's hosts on every switch — TS host
// 100+s, background host 200+s — plus a second attachment of host 100,
// which must keep the first, on both the topology and the reference.
// Every trunk's port and index, every host's attachment, every Router
// path and every Egress hop of it, toward every host, must equal the
// reference's, errors included, and Hosts must be the reference's IDs
// in ascending order.
func TestMatchesReference(t *testing.T) {
	for _, name := range Names {
		k, _ := Parse(name)
		for n := max(2, k.Floor()); n <= 16; n++ {
			topo, err := New(name, n)
			if err != nil {
				t.Fatal(err)
			}
			ref := reference(t, topo)
			tag := fmt.Sprintf("%s/%d", name, n)
			for s := 0; s < topo.N; s++ {
				for _, h := range []int{100 + s, 200 + s} {
					if got, want := topo.AttachHost(h, s), ref.AttachHost(h, s); got != want {
						t.Fatalf("%s: host %d attached at %+v, reference %+v", tag, h, got, want)
					}
				}
			}
			if got, want := topo.AttachHost(100, topo.N-1), ref.AttachHost(100, topo.N-1); got != want || got.Switch != 0 {
				t.Fatalf("%s: re-attaching host 100 gave %+v, reference %+v", tag, got, want)
			}
			hosts := ref.Hosts()
			sort.Ints(hosts)
			if got := topo.Hosts(); !reflect.DeepEqual(got, hosts) {
				t.Fatalf("%s: Hosts() = %v, want %v", tag, got, hosts)
			}
			hosts = append(hosts, 999) // never attached
			if topo.Ports() != ref.ports {
				t.Fatalf("%s: %d ports, reference %d", tag, topo.Ports(), ref.ports)
			}
			for s := 0; s < topo.N; s++ {
				if topo.PortCount(s) != ref.nextPort[s] {
					t.Fatalf("%s: switch %d has %d ports, reference %d", tag, s, topo.PortCount(s), ref.nextPort[s])
				}
				for nb := -1; nb <= topo.N; nb++ {
					got, gotOK := topo.PortToward(s, nb)
					want, wantOK := ref.PortToward(s, nb)
					if got != want || gotOK != wantOK {
						t.Fatalf("%s: port %d->%d = %+v %v, reference %+v %v", tag, s, nb, got, gotOK, want, wantOK)
					}
				}
			}
			for _, h := range hosts {
				got, gotOK := topo.HostAttach(h)
				want, wantOK := ref.hostPort[h]
				if got != want || gotOK != wantOK {
					t.Fatalf("%s: host %d at %+v %v, reference %+v %v", tag, h, got, gotOK, want, wantOK)
				}
			}
			assertEgressMatches(t, tag, topo, ref, hosts)
		}
	}
}

// assertEgressMatches requires every Router path of topo and every
// Egress hop along it, its last hop toward each of hosts, to equal the
// reference's.
func assertEgressMatches(t *testing.T, tag string, topo *Topology, ref *refTopology, hosts []int) {
	t.Helper()
	router := topo.Router()
	for src := 0; src < topo.N; src++ {
		for dst := 0; dst < topo.N; dst++ {
			path, err := router.Path(src, dst)
			want, wantErr := referencePath(ref, src, dst)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(path, want) {
				t.Fatalf("%s: path %d->%d = %v %v, reference %v %v", tag, src, dst, path, err, want, wantErr)
			}
			if err != nil {
				continue
			}
			for h := range path {
				for _, host := range hosts {
					got, err := topo.Egress(path, host, h)
					want, wantErr := ref.Egress(path, host, h)
					if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
						t.Fatalf("%s: path %v hop %d toward host %d = %+v %v, reference %+v %v",
							tag, path, h, host, got, err, want, wantErr)
					}
					if h+1 < len(path) {
						break // only the last hop depends on the host
					}
				}
			}
		}
	}
}

func TestRouterErrors(t *testing.T) {
	l := Linear(3)
	l.AttachHost(1, 0)
	r := l.Router()
	if _, err := r.Path(0, 3); err == nil {
		t.Error("out-of-range destination accepted")
	}
	if _, err := r.HostPath(1, 99); err == nil {
		t.Error("unattached destination host accepted")
	}
	if _, err := r.HostPath(99, 1); err == nil {
		t.Error("unattached source host accepted")
	}
}
