package core

import "repro/internal/rmat"

// Sequential references for the analytics workloads. All of them follow the
// partitioner's degree semantics: self loops are dropped and duplicate edges
// count with multiplicity.

// unionFind labels every vertex with the smallest original ID in its
// connected component (it unions toward the smaller root), which is exactly
// the fixpoint min-label propagation converges to.
func unionFind(n int64, edges []rmat.Edge) []int64 {
	parent := make([]int64, n)
	for i := range parent {
		parent[i] = int64(i)
	}
	find := func(x int64) int64 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		a, b := find(e.U), find(e.V)
		if a < b {
			parent[b] = a
		} else if b < a {
			parent[a] = b
		}
	}
	label := make([]int64, n)
	for v := int64(0); v < n; v++ {
		label[v] = find(v)
	}
	return label
}

// minLabelRounds counts the rounds of synchronous min-label propagation —
// every vertex takes the minimum of its own and its neighbors' previous-round
// labels — up to and including the first round in which nothing changes,
// the convergence accounting every driver workload uses.
func minLabelRounds(n int64, edges []rmat.Edge) int {
	label := make([]int64, n)
	for v := range label {
		label[v] = int64(v)
	}
	next := make([]int64, n)
	for rounds := 1; ; rounds++ {
		copy(next, label)
		for _, e := range edges {
			next[e.U] = min(next[e.U], label[e.V])
			next[e.V] = min(next[e.V], label[e.U])
		}
		changed := false
		for v := range label {
			if next[v] != label[v] {
				changed = true
			}
		}
		if !changed {
			return rounds
		}
		label, next = next, label
	}
}

// componentCount counts the distinct labels among vertices with at least
// one (non-loop) edge.
func componentCount(n int64, edges []rmat.Edge, label []int64) int64 {
	seen := make(map[int64]bool)
	for _, e := range edges {
		if e.U != e.V {
			seen[label[e.U]] = true
		}
	}
	return int64(len(seen))
}

// sequentialKCore is reference peeling: each round removes every vertex whose
// remaining degree is below k, then decrements its neighbors.
func sequentialKCore(n int64, edges []rmat.Edge, k int64) []bool {
	deg := make([]int64, n)
	adj := make([][]int64, n)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		deg[e.U]++
		deg[e.V]++
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	removed := make([]bool, n)
	for {
		var peel []int64
		for v := int64(0); v < n; v++ {
			if !removed[v] && deg[v] < k {
				removed[v] = true
				peel = append(peel, v)
			}
		}
		if len(peel) == 0 {
			break
		}
		for _, v := range peel {
			for _, u := range adj[v] {
				deg[u]--
			}
		}
	}
	in := make([]bool, n)
	for v := range in {
		in[v] = !removed[v]
	}
	return in
}

// sequentialPageRank is the dense reference power iteration with uniform
// dangling redistribution, run for exactly iters rounds.
func sequentialPageRank(n int64, edges []rmat.Edge, damping float64, iters int) []float64 {
	deg := make([]float64, n)
	for _, e := range edges {
		if e.U != e.V {
			deg[e.U]++
			deg[e.V]++
		}
	}
	val := make([]float64, n)
	for i := range val {
		val[i] = 1 / float64(n)
	}
	acc := make([]float64, n)
	for it := 0; it < iters; it++ {
		var dangling float64
		for v := range acc {
			acc[v] = 0
			if deg[v] == 0 {
				dangling += val[v]
			}
		}
		for _, e := range edges {
			if e.U != e.V {
				acc[e.V] += val[e.U] / deg[e.U]
				acc[e.U] += val[e.V] / deg[e.V]
			}
		}
		base := (1 - damping) / float64(n)
		share := dangling / float64(n)
		for v := range val {
			val[v] = base + damping*(acc[v]+share)
		}
	}
	return val
}
