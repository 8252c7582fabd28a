package topology

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// referencePath is Topology.Path as it stood before Router: one
// early-exit BFS per (src, dst) pair, kept verbatim as the oracle —
// except that neighbors are read from the trunk slices, and still
// sorted here so the oracle does not lean on their order.
func referencePath(t *Topology, src, dst int) ([]int, error) {
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
		router := tc.topo.Router()
		for src := 0; src < tc.topo.N; src++ {
			for dst := 0; dst < tc.topo.N; dst++ {
				want, err := referencePath(tc.topo, src, dst)
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
