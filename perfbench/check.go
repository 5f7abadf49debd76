package main

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"

	"repro/internal/rmat"
)

// edgeIndex is an undirected adjacency built once per process, so every
// parent array can be checked in O(n+m) instead of rebuilding an edge map
// per call as internal/validate does.
type edgeIndex struct {
	n     int64
	edges []rmat.Edge
	ptr   []int64
	adj   []int32
}

func newEdgeIndex(n int64, edges []rmat.Edge) *edgeIndex {
	ix := &edgeIndex{n: n, edges: edges, ptr: make([]int64, n+1)}
	for _, e := range edges {
		if e.U != e.V {
			ix.ptr[e.U+1]++
			ix.ptr[e.V+1]++
		}
	}
	for v := int64(0); v < n; v++ {
		ix.ptr[v+1] += ix.ptr[v]
	}
	ix.adj = make([]int32, ix.ptr[n])
	fill := append([]int64(nil), ix.ptr[:n]...)
	for _, e := range edges {
		if e.U != e.V {
			ix.adj[fill[e.U]] = int32(e.V)
			fill[e.U]++
			ix.adj[fill[e.V]] = int32(e.U)
			fill[e.V]++
		}
	}
	return ix
}

func (ix *edgeIndex) hasEdge(u, v int64) bool {
	for _, w := range ix.adj[ix.ptr[v]:ix.ptr[v+1]] {
		if int64(w) == u {
			return true
		}
	}
	return false
}

// checkBFS applies the Graph 500 BFS checks (the same five as
// internal/validate.BFS) and returns each vertex's BFS level (-1 when
// unreached).
func (ix *edgeIndex) checkBFS(root int64, parent []int64) ([]int64, error) {
	n := ix.n
	if int64(len(parent)) != n {
		return nil, fmt.Errorf("parent length %d, want %d", len(parent), n)
	}
	if root < 0 || root >= n || parent[root] != root {
		return nil, fmt.Errorf("root %d is not its own parent", root)
	}
	// Check 1: the parent array is a tree rooted at root.
	level := make([]int64, n)
	for i := range level {
		level[i] = -1
	}
	level[root] = 0
	var path []int64
	for v := int64(0); v < n; v++ {
		if parent[v] < -1 || parent[v] >= n {
			return nil, fmt.Errorf("parent[%d]=%d out of range", v, parent[v])
		}
		if parent[v] < 0 || level[v] >= 0 {
			continue
		}
		path = path[:0]
		u := v
		for level[u] < 0 {
			path = append(path, u)
			u = parent[u]
			if u < 0 || u >= n {
				return nil, fmt.Errorf("chain from %d leaves range at %d", v, u)
			}
			if int64(len(path)) > n {
				return nil, fmt.Errorf("parent cycle through %d", v)
			}
		}
		for i := len(path) - 1; i >= 0; i-- {
			level[path[i]] = level[u] + int64(len(path)-i)
		}
	}
	// Checks 2 and 4: tree edges span one level and exist in the input.
	for v := int64(0); v < n; v++ {
		p := parent[v]
		if p < 0 || v == root {
			continue
		}
		if level[v] != level[p]+1 {
			return nil, fmt.Errorf("tree edge %d->%d spans levels %d->%d", p, v, level[p], level[v])
		}
		if !ix.hasEdge(p, v) {
			return nil, fmt.Errorf("tree edge (%d,%d) not in input", p, v)
		}
	}
	// Checks 3 and 5: every input edge is level-consistent and stays inside
	// the visited component.
	for _, e := range ix.edges {
		if e.U == e.V {
			continue
		}
		lu, lv := level[e.U], level[e.V]
		if (lu < 0) != (lv < 0) {
			return nil, fmt.Errorf("edge (%d,%d) crosses the visited boundary", e.U, e.V)
		}
		if lu >= 0 && (lu-lv < -1 || lu-lv > 1) {
			return nil, fmt.Errorf("edge (%d,%d) spans levels %d,%d", e.U, e.V, lu, lv)
		}
	}
	return level, nil
}

// componentEdges counts input edges (self loops excluded) with both
// endpoints reached, the TEPS numerator for a traversal that reached them.
func (ix *edgeIndex) componentEdges(reached func(v int64) bool) int64 {
	var m int64
	for _, e := range ix.edges {
		if e.U != e.V && reached(e.U) && reached(e.V) {
			m++
		}
	}
	return m
}

// digester fingerprints answers so a repeated answer can be compared with
// the one that passed the full checks without keeping every array.
type digester struct{ seed maphash.Seed }

func newDigester() digester { return digester{seed: maphash.MakeSeed()} }

func (d digester) int64s(xs []int64) uint64 {
	var h maphash.Hash
	h.SetSeed(d.seed)
	var buf [4096]byte
	for len(xs) > 0 {
		k := min(len(xs), len(buf)/8)
		for i, x := range xs[:k] {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(x))
		}
		h.Write(buf[:8*k])
		xs = xs[k:]
	}
	return h.Sum64()
}

func (d digester) float64s(xs []float64) uint64 {
	bits := make([]int64, len(xs))
	for i, x := range xs {
		bits[i] = int64(math.Float64bits(x))
	}
	return d.int64s(bits)
}

// answerBook holds, per key (a root), the digest of the first answer, which
// the caller validated in full; later answers must reproduce it bit for bit.
type answerBook struct {
	d    digester
	seen map[int64]uint64
}

func newAnswerBook() *answerBook {
	return &answerBook{d: newDigester(), seen: make(map[int64]uint64)}
}

// known reports whether key already has a validated answer.
func (b *answerBook) known(key int64) bool {
	_, ok := b.seen[key]
	return ok
}

func (b *answerBook) record(key int64, digest uint64) { b.seen[key] = digest }

// matches compares an answer's digest with the validated one.
func (b *answerBook) matches(key int64, digest uint64) error {
	want, ok := b.seen[key]
	if !ok {
		return fmt.Errorf("key %d has no validated answer", key)
	}
	if digest != want {
		return fmt.Errorf("key %d: answer differs from its validated answer", key)
	}
	return nil
}
