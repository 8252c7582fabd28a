package topology

import "testing"

func TestMeshShape(t *testing.T) {
	m := Mesh(3, 4)
	if m.N != 12 || m.Kind != KindMesh {
		t.Fatalf("mesh 3x4: N=%d kind=%v", m.N, m.Kind)
	}
	// Grid edge count: rows·(cols-1) horizontal + (rows-1)·cols vertical.
	if got, want := len(m.TrunkLinks()), 3*3+2*4; got != want {
		t.Fatalf("trunk links = %d, want %d", got, want)
	}
	// Interior node 5 (row 1, col 1) reaches all four neighbors.
	for _, nb := range []int{4, 6, 1, 9} {
		if _, ok := m.PortToward(5, nb); !ok {
			t.Fatalf("interior node 5 has no port toward %d", nb)
		}
	}
	// Corner 0 has exactly right and down.
	if m.PortCount(0) != 2 {
		t.Fatalf("corner port count = %d, want 2", m.PortCount(0))
	}
	// Shortest path crosses the grid with Manhattan length.
	path, err := m.Router().Path(0, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 6 {
		t.Fatalf("path 0->11 has %d switches, want 6 (Manhattan 3+2)", len(path))
	}
}

func TestMeshSquarishFactors(t *testing.T) {
	cases := []struct{ n, rows int }{
		{12, 3},   // 3x4
		{16, 4},   // 4x4
		{200, 10}, // 10x20
		{7, 1},    // prime: 1x7 chain
	}
	for _, tc := range cases {
		m := MeshSquarish(tc.n)
		if m.N != tc.n {
			t.Fatalf("n=%d: built %d switches", tc.n, m.N)
		}
		// Recover rows from switch 0's downward neighbor: port toward
		// cols exists iff rows > 1.
		cols := tc.n / tc.rows
		if tc.rows > 1 {
			if _, ok := m.PortToward(0, cols); !ok {
				t.Fatalf("n=%d: expected %dx%d grid, no link 0->%d", tc.n, tc.rows, cols, cols)
			}
		}
	}
}

func TestFatTreeShape(t *testing.T) {
	ft := FatTree(4) // 4 pods of 4, 4 core = 20 switches
	if ft.N != 20 || ft.Kind != KindFatTree {
		t.Fatalf("fat-tree k=4: N=%d kind=%v", ft.N, ft.Kind)
	}
	// Edge-agg: k pods × (k/2)² = 16; agg-core: k pods × k/2 aggs × k/2 = 16.
	if got := len(ft.TrunkLinks()); got != 32 {
		t.Fatalf("trunk links = %d, want 32", got)
	}
	// Pod 0: edges 0,1; aggs 2,3. Edge 0 reaches both aggs, no core.
	for _, nb := range []int{2, 3} {
		if _, ok := ft.PortToward(0, nb); !ok {
			t.Fatalf("edge 0 has no port toward agg %d", nb)
		}
	}
	// Agg 2 (index 0 in pod) uplinks to cores 16,17; agg 3 to 18,19.
	if _, ok := ft.PortToward(2, 16); !ok {
		t.Fatal("agg 2 missing uplink to core 16")
	}
	if _, ok := ft.PortToward(3, 18); !ok {
		t.Fatal("agg 3 missing uplink to core 18")
	}
	// Cross-pod path: edge 0 (pod 0) to edge 4 (pod 1) goes
	// edge→agg→core→agg→edge.
	path, err := ft.Router().Path(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 5 {
		t.Fatalf("cross-pod path %v has %d hops, want 5", path, len(path))
	}
	// Same-pod path stays inside the pod.
	path, err = ft.Router().Path(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 || path[1] >= 4 {
		t.Fatalf("same-pod path %v should relay via a pod agg", path)
	}
}

// TestFatTreeEdgeSwitch: the edge tier is the first half of every pod,
// and only edge switches have just their k/2 aggregation uplinks.
func TestFatTreeEdgeSwitch(t *testing.T) {
	ft := FatTree(4)
	wantEdges := map[int]bool{0: true, 1: true, 4: true, 5: true, 8: true, 9: true, 12: true, 13: true}
	for sw := 0; sw < ft.N; sw++ {
		if edge := ft.PortCount(sw) == 2; edge != wantEdges[sw] {
			t.Fatalf("switch %d: %d ports, edge %v, want %v", sw, ft.PortCount(sw), edge, wantEdges[sw])
		}
	}
}

func TestFatTreeAtLeast(t *testing.T) {
	cases := []struct{ n, wantN int }{
		{1, 5},     // k=2: 4+1
		{6, 20},    // k=4: 16+4
		{21, 45},   // k=6: 36+9
		{200, 245}, // k=14: 196+49
	}
	for _, tc := range cases {
		if got := FatTreeAtLeast(tc.n).N; got != tc.wantN {
			t.Fatalf("FatTreeAtLeast(%d).N = %d, want %d", tc.n, got, tc.wantN)
		}
	}
}
