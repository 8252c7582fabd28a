// Scale topologies: the mesh grid and the fat-tree backbone used by
// the partitioned-simulation benchmarks and chaos campaigns. Both
// number switches locality-preservingly — mesh rows and fat-tree pods
// occupy contiguous ID ranges — so psim.Assign's ascending-ID blocks
// cut few links (see internal/psim).
package topology

// Mesh builds a rows×cols grid, switch r*cols+c at row r column c,
// with bidirectional trunks to the right and downward neighbors. Four
// enabled TSN ports per interior node — the densest of the shapes, a
// factory-cell backbone with redundant shortest paths. Row-major
// numbering keeps each row a contiguous ID range, so an ID-block
// partition cuts only the vertical links between row bands.
func Mesh(rows, cols int) *Topology {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		panic("topology: mesh needs at least 2 switches")
	}
	t := newTopology(KindMesh, rows*cols, 4, rows*(cols-1)+(rows-1)*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			sw := r*cols + c
			if c+1 < cols {
				t.cable(sw, sw+1)
			}
			if r+1 < rows {
				t.cable(sw, sw+cols)
			}
		}
	}
	return t
}

// MeshSquarish builds a mesh of exactly n switches, as close to square
// as n's factorization allows: rows is the largest divisor of n not
// exceeding √n (a prime n degenerates to a 1×n chain).
func MeshSquarish(n int) *Topology {
	if n < 2 {
		panic("topology: mesh needs at least 2 switches")
	}
	rows := 1
	for r := 2; r*r <= n; r++ {
		if n%r == 0 {
			rows = r
		}
	}
	return Mesh(rows, n/rows)
}

// FatTree builds the k-ary fat-tree: k pods of k/2 edge plus k/2
// aggregation switches, and (k/2)² core switches — k²+(k/2)²
// switches total. Every edge switch links to every aggregation switch
// in its pod; aggregation switch j of each pod links to core switches
// j·k/2 .. j·k/2+k/2-1. k must be even and ≥ 2.
//
// Numbering is pod-major: pod p occupies IDs p·k .. p·k+k-1 (edges
// first, then aggregations), and the core block comes last — so an
// ID-block partition keeps whole pods together and only the
// aggregation-to-core uplinks cross partitions.
func FatTree(k int) *Topology {
	if k < 2 || k%2 != 0 {
		panic("topology: fat-tree arity must be even and >= 2")
	}
	half := k / 2
	nPods := k * k // k pods × k switches
	n := nPods + half*half
	t := newTopology(KindFatTree, n, k, 2*k*half*half)
	for p := 0; p < k; p++ {
		base := p * k
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				t.cable(base+e, base+half+a)
			}
		}
	}
	for p := 0; p < k; p++ {
		base := p * k
		for a := 0; a < half; a++ {
			for c := 0; c < half; c++ {
				t.cable(base+half+a, nPods+a*half+c)
			}
		}
	}
	return t
}

// FatTreeAtLeast returns the smallest fat-tree with at least n
// switches (k grows in steps of 2).
func FatTreeAtLeast(n int) *Topology {
	for k := 2; ; k += 2 {
		if k*k+(k/2)*(k/2) >= n {
			return FatTree(k)
		}
	}
}
