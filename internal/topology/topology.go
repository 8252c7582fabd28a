// Package topology builds the paper's three industrial-control network
// shapes — star, ring and linear (§IV.A) — as switch-level graphs with
// port assignments, and computes the deterministic paths flows follow.
//
// Trunk (inter-switch) ports are allocated first and are the "enabled
// TSN ports" of the resource analysis: 3 for the star core, 2 for
// linear interior nodes, 1 for the unidirectional ring. Host access
// ports are allocated after the trunks. Every port is also numbered
// once network-wide, in allocation order (Attach.Index), and Egress is
// the one resolver from a bound path to those ports.
package topology

import (
	"fmt"
	"slices"
	"strings"
)

// Kind enumerates the supported shapes, in the order Names lists them.
type Kind int

// Supported topology kinds.
const (
	KindStar Kind = iota
	KindRing
	KindRingBidir
	KindLinear
	KindTree
	KindMesh
	KindFatTree
)

// Names lists every topology New builds, indexed by Kind: the paper's
// industrial shapes, then the two scale shapes of scale.go.
var Names = []string{"star", "ring", "bidir-ring", "linear", "tree", "mesh", "fattree"}

// shapes is the topology table, indexed by Kind: the fewest switches
// each shape builds from — one less panics its constructor, except the
// fat-tree's, which rounds any count up — and the constructor.
var shapes = [...]struct {
	floor int
	build func(n int) *Topology
}{
	KindStar:      {2, func(n int) *Topology { return Star(n - 1) }},
	KindRing:      {3, Ring},
	KindRingBidir: {3, RingBidir},
	KindLinear:    {2, Linear},
	KindTree:      {2, func(n int) *Topology { return Tree(2, (n-3)/2) }},
	KindMesh:      {2, MeshSquarish},
	KindFatTree:   {1, FatTreeAtLeast},
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(Names) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return Names[k]
}

// Floor is the fewest switches a k topology is built from.
func (k Kind) Floor() int { return shapes[k].floor }

// Parse returns the kind called name.
func Parse(name string) (Kind, error) {
	if k := slices.Index(Names, name); k >= 0 {
		return Kind(k), nil
	}
	return 0, fmt.Errorf("topology: unknown %q (one of %s)", name, strings.Join(Names, ", "))
}

// New builds the topology called name from n switches — star children
// = n-1, a two-spine tree with (n-3)/2 leaves per spine, the squarest
// mesh of exactly n, the smallest fat-tree reaching n — or says why it
// cannot: the name is unknown or n is below the shape's floor.
func New(name string, n int) (*Topology, error) {
	k, err := Parse(name)
	if err != nil {
		return nil, err
	}
	if n < k.Floor() {
		return nil, fmt.Errorf("topology: %s needs at least %d switches, have %d", name, k.Floor(), n)
	}
	return shapes[k].build(n), nil
}

// Topology is a switch-level graph with port bookkeeping.
type Topology struct {
	Kind Kind
	// N is the number of switches, numbered 0..N-1.
	N int
	// EnabledTSNPorts is the per-switch maximum of deterministic trunk
	// ports, the port_num of the paper's resource analysis (3/2/1 for
	// star/linear/ring).
	EnabledTSNPorts int

	// trunks holds every switch's trunks in one array, in the order
	// they were added. head[sw] is the first of sw's in ascending
	// neighbor order, each trunk's next the one after it, -1 the end.
	trunks []trunk
	head   []int32
	// nextPort[sw] = next unallocated port index.
	nextPort []int
	// ports counts the ports allocated network-wide: the next Index.
	ports int
	// hosts are the attachment points, in ascending host ID order.
	hosts []hostPort
	// links are the physical trunk cables (both endpoints).
	links []Link
}

// trunk is one direction of an inter-switch link: the output port
// toward neighbor to, that port's Index, and the position in trunks of
// the same switch's next trunk by neighbor.
type trunk struct{ to, port, index, next int32 }

// hostPort is one attached host and its access port.
type hostPort struct {
	host int
	at   Attach
}

// Attach locates one switch port: Port on Switch, and Index, its number
// network-wide — dense in [0, Topology.Ports()), fixed when the port is
// allocated.
type Attach struct {
	Switch int
	Port   int
	Index  int
}

// Link is one physical trunk cable between two switch ports.
type Link struct {
	A, B Attach
}

// newTopology returns n unconnected switches with room for the given
// number of cables, their trunks — one each way, one only on the
// unidirectional ring — and two hosts per switch, what workload.Build
// attaches.
func newTopology(kind Kind, n, enabled, cables int) *Topology {
	trunks := 2 * cables
	if kind == KindRing {
		trunks = cables
	}
	t := &Topology{
		Kind:            kind,
		N:               n,
		EnabledTSNPorts: enabled,
		trunks:          make([]trunk, 0, trunks),
		head:            make([]int32, n),
		nextPort:        make([]int, n),
		hosts:           make([]hostPort, 0, 2*n),
		links:           make([]Link, 0, cables),
	}
	for i := range t.head {
		t.head[i] = -1
	}
	return t
}

// port allocates sw's next port.
func (t *Topology) port(sw int) Attach {
	a := Attach{Switch: sw, Port: t.nextPort[sw], Index: t.ports}
	t.nextPort[sw]++
	t.ports++
	return a
}

// addTrunk allocates the next port on sw toward neighbor and links it
// into sw's trunks in neighbor order.
func (t *Topology) addTrunk(sw, neighbor int) Attach {
	a := t.port(sw)
	e := int32(len(t.trunks))
	t.trunks = append(t.trunks, trunk{to: int32(neighbor), port: int32(a.Port), index: int32(a.Index)})
	link := &t.head[sw]
	for *link >= 0 && t.trunks[*link].to < int32(neighbor) {
		link = &t.trunks[*link].next
	}
	t.trunks[e].next, *link = *link, e
	return a
}

// cable joins switches a and b with one bidirectional trunk — the next
// free port on each side, a's allocated first — and records the Link.
func (t *Topology) cable(a, b int) {
	ap := t.addTrunk(a, b)
	t.links = append(t.links, Link{A: ap, B: t.addTrunk(b, a)})
}

// Star builds a core switch (0) with children 1..children. The paper's
// star has three children (4 switches) and 3 enabled TSN ports on the
// core.
func Star(children int) *Topology {
	if children < 1 {
		panic("topology: star needs at least one child")
	}
	t := newTopology(KindStar, children+1, children, children)
	for c := 1; c <= children; c++ {
		t.cable(0, c)
	}
	return t
}

// Ring builds n switches in a unidirectional ring: switch i forwards to
// switch (i+1) mod n. Each node has a single enabled TSN port, the
// paper's most resource-frugal case.
func Ring(n int) *Topology {
	if n < 3 {
		panic("topology: ring needs at least 3 switches")
	}
	t := newTopology(KindRing, n, 1, n)
	for i := 0; i < n; i++ {
		t.addTrunk(i, (i+1)%n)
	}
	// Receiving side of each trunk: the upstream neighbor's cable lands
	// on a dedicated ingress port (egress-idle, so it consumes no
	// queue/buffer resources).
	for i := 0; i < n; i++ {
		tx, _ := t.PortToward(i, (i+1)%n)
		t.links = append(t.links, Link{A: tx, B: t.port((i + 1) % n)})
	}
	return t
}

// RingBidir builds n switches in a bidirectional ring: switch i can
// forward both to (i+1) mod n (port 0, clockwise) and to (i-1) mod n
// (port 1, counter-clockwise). Two enabled TSN ports per node. This is
// the redundant-ring shape 802.1CB FRER needs: any two nodes are joined
// by two link-disjoint paths, one per ring direction.
func RingBidir(n int) *Topology {
	if n < 3 {
		panic("topology: bidir ring needs at least 3 switches")
	}
	t := newTopology(KindRingBidir, n, 2, n)
	for i := 0; i < n; i++ {
		t.addTrunk(i, (i+1)%n) // port 0: clockwise
	}
	for i := 0; i < n; i++ {
		t.addTrunk(i, (i-1+n)%n) // port 1: counter-clockwise
	}
	// One physical cable per adjacent pair, joining i's clockwise port
	// to (i+1)'s counter-clockwise port.
	for i := 0; i < n; i++ {
		cw, _ := t.PortToward(i, (i+1)%n)
		ccw, _ := t.PortToward((i+1)%n, i)
		t.links = append(t.links, Link{A: cw, B: ccw})
	}
	return t
}

// Tree builds a two-level aggregation tree: one root switch with
// `spines` children, each child with `leaves` children of its own
// (1 + spines + spines×leaves switches). The root's spine count is the
// per-switch maximum of deterministic trunk ports, the paper's
// "etc." case for larger industrial backbones.
func Tree(spines, leaves int) *Topology {
	if spines < 1 || leaves < 0 {
		panic("topology: tree needs at least one spine")
	}
	n := 1 + spines + spines*leaves
	enabled := spines
	if leaves+1 > enabled {
		enabled = leaves + 1 // a spine's downlinks + uplink
	}
	t := newTopology(KindTree, n, enabled, n-1)
	next := 1
	for s := 0; s < spines; s++ {
		spine := next
		next++
		t.cable(0, spine)
		for l := 0; l < leaves; l++ {
			t.cable(spine, next)
			next++
		}
	}
	return t
}

// Linear builds n switches in a chain with bidirectional forwarding;
// interior nodes have 2 enabled TSN ports.
func Linear(n int) *Topology {
	if n < 2 {
		panic("topology: linear needs at least 2 switches")
	}
	t := newTopology(KindLinear, n, 2, n-1)
	for i := 0; i < n-1; i++ {
		t.cable(i, i+1)
	}
	return t
}

// AttachHost allocates an access port for host on switch sw. A host
// already attached keeps its first attachment, which is returned.
func (t *Topology) AttachHost(host, sw int) Attach {
	if sw < 0 || sw >= t.N {
		panic(fmt.Sprintf("topology: switch %d out of range", sw))
	}
	i, ok := t.findHost(host)
	if ok {
		return t.hosts[i].at
	}
	a := t.port(sw)
	t.hosts = slices.Insert(t.hosts, i, hostPort{host: host, at: a})
	return a
}

// findHost returns where host is in t.hosts, or where it would go. It
// is on every path and egress query, so the search is written out: a
// comparator call per step costs more than the whole search.
func (t *Topology) findHost(host int) (int, bool) {
	lo, hi := 0, len(t.hosts)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); t.hosts[m].host < host {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(t.hosts) && t.hosts[lo].host == host
}

// HostAttach returns host's attachment point.
func (t *Topology) HostAttach(host int) (Attach, bool) {
	if i, ok := t.findHost(host); ok {
		return t.hosts[i].at, true
	}
	return Attach{}, false
}

// Hosts returns all attached host IDs in ascending order.
func (t *Topology) Hosts() []int {
	out := make([]int, len(t.hosts))
	for i, h := range t.hosts {
		out[i] = h.host
	}
	return out
}

// PortCount returns the number of ports switch sw needs instantiated.
func (t *Topology) PortCount(sw int) int { return t.nextPort[sw] }

// Ports returns the number of ports network-wide: every Attach.Index is
// below it.
func (t *Topology) Ports() int { return t.ports }

// TrunkLinks returns the physical inter-switch cables.
func (t *Topology) TrunkLinks() []Link { return t.links }

// PortToward returns sw's output port toward direct neighbor next.
func (t *Topology) PortToward(sw, next int) (Attach, bool) {
	if sw >= 0 && sw < t.N {
		for i := t.head[sw]; i >= 0; i = t.trunks[i].next {
			if e := &t.trunks[i]; int(e.to) == next {
				return Attach{Switch: sw, Port: int(e.port), Index: int(e.index)}, true
			}
		}
	}
	return Attach{}, false
}

// Hop is the egress port a flow leaves one switch of its path by, and
// Next, what the port leads to: the path's next switch, or −(host+2)
// for the destination host's access port.
type Hop struct {
	Attach
	Next int
}

// Egress resolves hop h of a bound path toward dstHost: the trunk from
// path[h] to path[h+1], or, at the last hop, dstHost's access port,
// which must be on path[h]. It is the one place a path becomes egress
// ports: the ITP grid's rows, the forwarding entries and the TAS
// windows all read it.
func (t *Topology) Egress(path []int, dstHost, h int) (Hop, error) {
	sw := path[h]
	if h+1 < len(path) {
		a, ok := t.PortToward(sw, path[h+1])
		if !ok {
			return Hop{}, fmt.Errorf("topology: no trunk %d->%d", sw, path[h+1])
		}
		return Hop{Attach: a, Next: path[h+1]}, nil
	}
	a, ok := t.HostAttach(dstHost)
	if !ok {
		return Hop{}, fmt.Errorf("topology: host %d not attached", dstHost)
	}
	if a.Switch != sw {
		return Hop{}, fmt.Errorf("topology: path ends at switch %d but host %d is on %d", sw, dstHost, a.Switch)
	}
	return Hop{Attach: a, Next: -(dstHost + 2)}, nil
}

// Router answers path queries over one topology with one breadth-first
// search per distinct source switch. Its memory is a few arenas that
// grow with the sources searched and the paths handed out, never N×N up
// front. Equal (src, dst) queries return the same slice: callers share
// it and must not modify it.
type Router struct {
	t *Topology
	// row[src] is where src's row starts in dests, -1 before its search.
	row []int32
	// dests holds one row of N entries per searched source, by
	// destination; it grows fourfold when full.
	dests []dest
	// paths are the paths handed out, in order of first query.
	paths [][]int
	// ints is the block paths are carved from. A full block stays with
	// the paths it backs and a new one takes its place.
	ints []int
	// queue is the breadth-first search's, reused across sources.
	queue []int32
}

// dest is what a source's search knows of one destination.
type dest struct {
	prev int32 // the switch before the destination, -1: unreachable
	path int32 // 1 + the path's index in paths, 0 before its first query
}

// Router returns a path router over t's trunks.
func (t *Topology) Router() *Router {
	r := &Router{t: t, row: make([]int32, t.N), paths: make([][]int, 0, t.N), queue: make([]int32, 0, t.N)}
	for i := range r.row {
		r.row[i] = -1
	}
	return r
}

// Path returns the switch sequence from switch src to switch dst,
// inclusive. For the unidirectional ring the path follows the ring
// direction; otherwise it is the shortest path, the lowest-numbered
// neighbor first where several are equally short.
func (r *Router) Path(src, dst int) ([]int, error) {
	if src < 0 || src >= r.t.N || dst < 0 || dst >= r.t.N {
		return nil, fmt.Errorf("topology: path %d->%d out of range", src, dst)
	}
	if r.row[src] < 0 {
		r.search(src)
	}
	row := r.dests[r.row[src]:][:r.t.N]
	d := &row[dst]
	if d.path == 0 {
		if d.prev == -1 {
			return nil, fmt.Errorf("topology: no path %d->%d", src, dst)
		}
		r.paths = append(r.paths, r.carve(row, src, dst))
		d.path = int32(len(r.paths))
	}
	return r.paths[d.path-1], nil
}

// HostPath returns the full switch path between two attached hosts.
func (r *Router) HostPath(srcHost, dstHost int) ([]int, error) {
	sa, ok := r.t.HostAttach(srcHost)
	if !ok {
		return nil, fmt.Errorf("topology: host %d not attached", srcHost)
	}
	da, ok := r.t.HostAttach(dstHost)
	if !ok {
		return nil, fmt.Errorf("topology: host %d not attached", dstHost)
	}
	return r.Path(sa.Switch, da.Switch)
}

// search appends src's row: the breadth-first predecessor tree over the
// directed adjacency (the ring is directed; the other shapes are
// symmetric). Neighbors are expanded in ascending order so the choice
// between equal-length paths (bidirectional ring, mesh, fat-tree) is
// deterministic. A predecessor is written only when its switch is first
// discovered, so the tree holds, for every destination, exactly the
// path a search stopping there would return.
func (r *Router) search(src int) {
	n := r.t.N
	at := len(r.dests)
	if cap(r.dests)-at < n {
		grown := make([]dest, at, max(n, 4*cap(r.dests)))
		copy(grown, r.dests)
		r.dests = grown
	}
	r.dests = r.dests[:at+n]
	row := r.dests[at:]
	for i := range row {
		row[i] = dest{prev: -1}
	}
	row[src].prev = int32(src)
	queue := append(r.queue[:0], int32(src))
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for i := r.t.head[cur]; i >= 0; i = r.t.trunks[i].next {
			if to := r.t.trunks[i].to; row[to].prev == -1 {
				row[to].prev = cur
				queue = append(queue, to)
			}
		}
	}
	r.row[src] = int32(at)
}

// carve walks row's tree back from dst to src into a path cut from the
// ints block, its capacity capped so an append cannot reach a neighbor.
func (r *Router) carve(row []dest, src, dst int) []int {
	n := 1
	for cur := dst; cur != src; cur = int(row[cur].prev) {
		n++
	}
	if cap(r.ints)-len(r.ints) < n {
		// Room for a path this long from src and from every source not
		// searched yet, at most 4·N ints: exact when every switch is the
		// source of paths of one length to one destination, so the block
		// keeps no unused tail alive with the paths.
		sources := 1 + r.t.N - len(r.dests)/r.t.N
		r.ints = make([]int, 0, max(n, min(n*sources, 4*r.t.N)))
	}
	at := len(r.ints)
	r.ints = r.ints[:at+n]
	path := r.ints[at : at+n : at+n]
	for cur := dst; n > 0; cur = int(row[cur].prev) {
		n--
		path[n] = cur
	}
	return path
}

// DisjointPaths returns two link-disjoint switch paths from src to
// dst: the clockwise and counter-clockwise walks of a bidirectional
// ring. These are the member streams' paths for 802.1CB replication.
// Only KindRingBidir guarantees disjointness; other kinds return an
// error.
func (t *Topology) DisjointPaths(src, dst int) (primary, alternate []int, err error) {
	if t.Kind != KindRingBidir {
		return nil, nil, fmt.Errorf("topology: disjoint paths need a bidirectional ring, have %v", t.Kind)
	}
	if src < 0 || src >= t.N || dst < 0 || dst >= t.N {
		return nil, nil, fmt.Errorf("topology: disjoint paths %d->%d out of range", src, dst)
	}
	if src == dst {
		return nil, nil, fmt.Errorf("topology: disjoint paths need distinct endpoints")
	}
	for cur := src; ; cur = (cur + 1) % t.N {
		primary = append(primary, cur)
		if cur == dst {
			break
		}
	}
	for cur := src; ; cur = (cur - 1 + t.N) % t.N {
		alternate = append(alternate, cur)
		if cur == dst {
			break
		}
	}
	return primary, alternate, nil
}

// DisjointHostPaths is DisjointPaths between two attached hosts.
func (t *Topology) DisjointHostPaths(srcHost, dstHost int) (primary, alternate []int, err error) {
	sa, ok := t.HostAttach(srcHost)
	if !ok {
		return nil, nil, fmt.Errorf("topology: host %d not attached", srcHost)
	}
	da, ok := t.HostAttach(dstHost)
	if !ok {
		return nil, nil, fmt.Errorf("topology: host %d not attached", dstHost)
	}
	return t.DisjointPaths(sa.Switch, da.Switch)
}
