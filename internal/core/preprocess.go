package core

import (
	"sort"

	"wishbone/internal/dataflow"
)

// cluster is a group of operators constrained to share a partition side in
// the reduced problem.
type cluster struct {
	index int   // dense index in the reduced problem
	ops   []int // member operator IDs
	cpu   float64
	place dataflow.Placement
}

// clusterEdge is an edge of the reduced problem (between distinct clusters).
type clusterEdge struct {
	from, to int // cluster indices
	bw       float64
	edges    []*dataflow.Edge // original graph edges it aggregates
}

// reduced is the preprocessed partitioning problem (§4.1).
type reduced struct {
	clusters []*cluster
	edges    []*clusterEdge
	byOp     []int // operator ID → cluster index
}

// buildReduced clusters the graph per §4.1: any movable operator whose
// total output bandwidth is greater than or equal to its total input
// bandwidth (data-neutral or data-expanding) is merged with its downstream
// consumers — a cut below it is never strictly better than a cut above it.
// Merging repeats until a fixed point. Sources are never merged downward
// (they have no upstream edge for the cut to move to), and a merge is
// skipped when it would fuse node-pinned with server-pinned operators.
//
// When enabled is false the function still builds the cluster structure
// (one cluster per operator) so the formulations can be written once
// against the reduced form.
func buildReduced(s *Spec, enabled bool) *reduced {
	g := s.Graph
	n := g.NumOperators()

	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	place := func(id int) dataflow.Placement { return s.Class.Place[id] }

	// union attempts to merge the clusters of a and b, respecting pins.
	// It returns true when the merge happened (or they already share a
	// cluster).
	union := func(a, b int) bool {
		ra, rb := find(a), find(b)
		if ra == rb {
			return true
		}
		pa, pb := place(ra), place(rb)
		if pa != dataflow.Movable && pb != dataflow.Movable && pa != pb {
			return false // would fuse node-pinned with server-pinned
		}
		// Root placement must dominate: keep the pinned side's placement.
		root, child := ra, rb
		if pa == dataflow.Movable && pb != dataflow.Movable {
			root, child = rb, ra
		}
		parent[child] = root
		return true
	}

	if enabled {
		// Iterate to a fixed point over cluster-level bandwidths. A cluster
		// may only be merged downward when ALL of its external output goes
		// to a single downstream cluster: the dominance argument ("move it
		// to the server, cutting its inputs instead of its outputs")
		// requires that cutting the cluster's outputs means cutting the
		// whole bundle, which fails if consumers could be split across the
		// cut. The per-cluster slices are indexed by root operator ID and
		// cleared each pass; edges are summed in graph order every pass.
		const multi = -2 // target of a cluster with >1 downstream cluster
		edges := g.Edges()
		bw := make([]float64, len(edges))
		for k, e := range edges {
			bw[k] = s.edgeBW(e)
		}
		inBW := make([]float64, n)
		outBW := make([]float64, n)
		hasIn := make([]bool, n)
		target := make([]int, n) // cluster → sole downstream cluster, -1 none
		for changed := true; changed; {
			changed = false
			clear(inBW)
			clear(outBW)
			clear(hasIn)
			for i := range target {
				target[i] = -1
			}
			for k, e := range edges {
				cf, ct := find(e.From.ID()), find(e.To.ID())
				if cf == ct {
					continue
				}
				outBW[cf] += bw[k]
				inBW[ct] += bw[k]
				hasIn[ct] = true
				if target[cf] == -1 {
					target[cf] = ct
				} else if target[cf] != ct {
					target[cf] = multi
				}
			}
			for id := range parent {
				c := find(id)
				if !hasIn[c] || target[c] == multi {
					continue // source cluster, or split-able consumers
				}
				ct := target[c]
				if ct == -1 {
					continue // sink cluster
				}
				if place(c) == dataflow.PinNode {
					// A node-pinned cluster's output edges must stay
					// cuttable (the cut may be forced below it).
					continue
				}
				if outBW[c] < inBW[c]-1e-12 {
					continue // data-reducing: its output is a viable cut
				}
				if union(c, ct) {
					changed = true
					break // bandwidth sums are stale; recompute
				}
			}
		}
	}

	// Materialize clusters with dense indices, in order of smallest member
	// ID: walking IDs upward meets each cluster first at its smallest one.
	red := &reduced{byOp: make([]int, n)}
	index := make([]int, n) // root → cluster index + 1
	for id := range parent {
		r := find(id)
		if index[r] == 0 {
			red.clusters = append(red.clusters, &cluster{index: len(red.clusters), place: dataflow.Movable})
			index[r] = len(red.clusters)
		}
		c := red.clusters[index[r]-1]
		c.ops = append(c.ops, id)
		c.cpu += s.opCPU(id)
		red.byOp[id] = c.index
		// Any pinned member pins the cluster (pins are consistent by
		// construction of union).
		if p := place(id); p != dataflow.Movable {
			c.place = p
		}
	}

	// Aggregate inter-cluster edges.
	agg := make(map[[2]int]*clusterEdge)
	for _, e := range g.Edges() {
		cf, ct := red.byOp[e.From.ID()], red.byOp[e.To.ID()]
		if cf == ct {
			continue
		}
		key := [2]int{cf, ct}
		ce := agg[key]
		if ce == nil {
			ce = &clusterEdge{from: cf, to: ct}
			agg[key] = ce
			red.edges = append(red.edges, ce)
		}
		ce.bw += s.edgeBW(e)
		ce.edges = append(ce.edges, e)
	}
	sort.Slice(red.edges, func(i, j int) bool {
		if red.edges[i].from != red.edges[j].from {
			return red.edges[i].from < red.edges[j].from
		}
		return red.edges[i].to < red.edges[j].to
	})
	return red
}
