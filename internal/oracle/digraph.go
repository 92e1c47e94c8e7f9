// Package oracle is the reference judge of the clock synchronization
// pipeline: textbook adjacency-list and [][]float64 forms of the graph
// algorithms that internal/graph implements as flat Dense/CSR kernels.
// It holds single-source shortest paths with negative weights
// (Bellman-Ford), all-pairs shortest paths (Floyd-Warshall, and Johnson
// as an independent cross-check), negative-cycle detection, strongly
// connected components (Tarjan), and the maximum mean cycle (Karp, and
// Lawler's binary search as a cross-check).
//
// The solve path never imports this package: internal/verify, experiment
// A3 and the kernels' tests use it to judge what the production kernels
// compute, so a defect in a kernel cannot also hide in its judge. It
// imports only the standard library (import_test.go enforces both
// directions).
//
// Weights are float64. +Inf denotes an absent edge (or an unconstrained
// weight); -Inf never appears in valid inputs. All algorithms treat +Inf
// edges as missing.
package oracle

import (
	"fmt"
	"math"
)

// inf is the weight of an absent edge.
var inf = math.Inf(1)

// Edge is a directed, weighted edge.
type Edge struct {
	From, To int
	Weight   float64
}

// Digraph is a directed graph with float64 edge weights, stored as adjacency
// lists. Parallel edges are permitted; algorithms use the minimum-weight
// parallel edge implicitly (shortest-path semantics) unless stated otherwise.
type Digraph struct {
	n   int
	adj [][]Edge // outgoing edges per node
	m   int      // number of edges
}

// NewDigraph returns an empty digraph on n nodes (0..n-1).
func NewDigraph(n int) *Digraph {
	if n < 0 {
		n = 0
	}
	return &Digraph{
		n:   n,
		adj: make([][]Edge, n),
	}
}

// N returns the number of nodes.
func (g *Digraph) N() int { return g.n }

// M returns the number of edges.
func (g *Digraph) M() int { return g.m }

// AddEdge inserts a directed edge from -> to with the given weight.
// Edges with weight +Inf are ignored (they are equivalent to absence).
// It returns an error if either endpoint is out of range or the weight is
// NaN or -Inf.
func (g *Digraph) AddEdge(from, to int, weight float64) error {
	if from < 0 || from >= g.n {
		return fmt.Errorf("oracle: edge source %d out of range [0,%d)", from, g.n)
	}
	if to < 0 || to >= g.n {
		return fmt.Errorf("oracle: edge target %d out of range [0,%d)", to, g.n)
	}
	if math.IsNaN(weight) {
		return fmt.Errorf("oracle: edge (%d,%d) has NaN weight", from, to)
	}
	if math.IsInf(weight, -1) {
		return fmt.Errorf("oracle: edge (%d,%d) has -Inf weight", from, to)
	}
	if math.IsInf(weight, 1) {
		return nil // +Inf edge is an absent edge
	}
	g.adj[from] = append(g.adj[from], Edge{From: from, To: to, Weight: weight})
	g.m++
	return nil
}

// MustAddEdge is AddEdge for callers with statically valid arguments
// (tests, generators). It panics on error.
func (g *Digraph) MustAddEdge(from, to int, weight float64) {
	if err := g.AddEdge(from, to, weight); err != nil {
		panic(err)
	}
}

// Out returns the outgoing edges of node v. The returned slice is owned by
// the graph and must not be modified.
func (g *Digraph) Out(v int) []Edge { return g.adj[v] }

// Edges returns a copy of all edges.
func (g *Digraph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for _, es := range g.adj {
		out = append(out, es...)
	}
	return out
}

// FromMatrix builds a digraph from a square weight matrix. Entries equal to
// +Inf are treated as absent edges; diagonal entries are ignored.
func FromMatrix(w [][]float64) (*Digraph, error) {
	n := len(w)
	g := NewDigraph(n)
	for i := range w {
		if len(w[i]) != n {
			return nil, fmt.Errorf("oracle: matrix row %d has %d entries, want %d", i, len(w[i]), n)
		}
		for j, x := range w[i] {
			if i == j {
				continue
			}
			if err := g.AddEdge(i, j, x); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// Matrix returns the n×n minimum-weight adjacency matrix of the graph, with
// +Inf for absent edges and 0 on the diagonal.
func (g *Digraph) Matrix() [][]float64 {
	w := newMatrix(g.n, inf)
	for i := 0; i < g.n; i++ {
		w[i][i] = 0
	}
	for _, es := range g.adj {
		for _, e := range es {
			if e.Weight < w[e.From][e.To] {
				w[e.From][e.To] = e.Weight
			}
		}
	}
	return w
}

// newMatrix allocates an n×n matrix filled with fill.
func newMatrix(n int, fill float64) [][]float64 {
	w := make([][]float64, n)
	buf := make([]float64, n*n)
	for i := range buf {
		buf[i] = fill
	}
	for i := range w {
		w[i], buf = buf[:n:n], buf[n:]
	}
	return w
}
