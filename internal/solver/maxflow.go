package solver

// Dinic max-flow, used to solve the Lagrangian subproblem exactly: the
// relaxed partitioning objective is linear over monotone (ancestor-closed)
// node sets, and minimizing a linear function over closed sets is the
// classic minimum-closure problem, reducible to s-t min-cut (Picard 1976).
// Graphs here are small (operators after elaboration, ≤ a few thousand),
// so a simple slice-based Dinic is more than fast enough and — unlike a
// general LP — exactly integral and deterministic.

type flowEdge struct {
	to, rev int // head vertex; index of the reverse edge in adj[to]
	cap     float64
}

// flowNet is a unit max-flow network with vertices 0..n-1. One network
// serves every minClosure of a Lagrangian solve: reset keeps each
// adjacency list's capacity, and Dinic's level, iterator, queue and
// cut-side storage survive between calls.
type flowNet struct {
	adj          [][]flowEdge
	level, iter  []int
	queue, stack []int
	side         []bool
}

// reset empties the network to n vertices.
func (f *flowNet) reset(n int) {
	if len(f.adj) != n {
		*f = flowNet{
			adj: make([][]flowEdge, n), level: make([]int, n), iter: make([]int, n),
			queue: make([]int, 0, n), stack: make([]int, 0, n), side: make([]bool, n),
		}
	}
	for u := range f.adj {
		f.adj[u] = f.adj[u][:0]
	}
}

// addEdge adds a directed edge u→v with the given capacity (and a zero
// capacity reverse edge).
func (f *flowNet) addEdge(u, v int, cap_ float64) {
	f.adj[u] = append(f.adj[u], flowEdge{to: v, rev: len(f.adj[v]), cap: cap_})
	f.adj[v] = append(f.adj[v], flowEdge{to: u, rev: len(f.adj[u]) - 1, cap: 0})
}

const flowEps = 1e-12

// maxFlow pushes the maximum flow from s to t and returns its value. The
// residual network is left in place for minCutSourceSide.
func (f *flowNet) maxFlow(s, t int) float64 {
	total := 0.0
	for f.bfs(s, t) {
		clear(f.iter)
		for {
			pushed := f.dfs(s, t, inf)
			if pushed <= flowEps {
				break
			}
			total += pushed
		}
	}
	return total
}

// bfs labels every vertex with its residual distance from s and reports
// whether t is reachable.
func (f *flowNet) bfs(s, t int) bool {
	for i := range f.level {
		f.level[i] = -1
	}
	f.level[s] = 0
	f.queue = append(f.queue[:0], s)
	for head := 0; head < len(f.queue); head++ {
		u := f.queue[head]
		for _, e := range f.adj[u] {
			if e.cap > flowEps && f.level[e.to] < 0 {
				f.level[e.to] = f.level[u] + 1
				f.queue = append(f.queue, e.to)
			}
		}
	}
	return f.level[t] >= 0
}

// dfs pushes one augmenting path of at most limit along the level graph.
func (f *flowNet) dfs(u, t int, limit float64) float64 {
	if u == t {
		return limit
	}
	for ; f.iter[u] < len(f.adj[u]); f.iter[u]++ {
		e := &f.adj[u][f.iter[u]]
		if e.cap <= flowEps || f.level[e.to] != f.level[u]+1 {
			continue
		}
		pushed := f.dfs(e.to, t, minf(limit, e.cap))
		if pushed > flowEps {
			e.cap -= pushed
			f.adj[e.to][e.rev].cap += pushed
			return pushed
		}
	}
	return 0
}

// minCutSourceSide returns, after maxFlow, which vertices sit on the
// source side of the minimum cut (reachable in the residual network).
func (f *flowNet) minCutSourceSide(s int) []bool {
	clear(f.side)
	f.stack = append(f.stack[:0], s)
	f.side[s] = true
	for len(f.stack) > 0 {
		u := f.stack[len(f.stack)-1]
		f.stack = f.stack[:len(f.stack)-1]
		for _, e := range f.adj[u] {
			if e.cap > flowEps && !f.side[e.to] {
				f.side[e.to] = true
				f.stack = append(f.stack, e.to)
			}
		}
	}
	return f.side
}

const inf = 1e30

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// minClosure minimizes Σ w[v]·f[v] over ancestor-closed 0/1 vectors f on a
// DAG of n vertices given as edge pairs (from, to), with optional forced
// values: force[v] = +1 pins f[v]=1, -1 pins f[v]=0, 0 leaves it free.
// Closure means an edge u→v forces f[u] ≥ f[v] (placing an operator on the
// node drags its upstream along, the restricted single-crossing rule). It
// rebuilds the network in place and returns the selected set, which
// aliases the network's storage until the next call, and the exact
// minimum value.
func (f *flowNet) minClosure(n int, edges [][2]int, w []float64, force []int8) ([]bool, float64) {
	// Fold pins into weights big enough to dominate any free choice.
	big := 1.0
	for _, x := range w {
		if x > 0 {
			big += x
		} else {
			big -= x
		}
	}

	// Maximize Σ p over closed sets: p = −w, or ±big when pinned.
	s, t := n, n+1
	f.reset(n + 2)
	for v := 0; v < n; v++ {
		p := -w[v]
		switch force[v] {
		case 1:
			p = big
		case -1:
			p = -big
		}
		if p > 0 {
			f.addEdge(s, v, p)
		} else if p < 0 {
			f.addEdge(v, t, -p)
		}
	}
	// Selecting v requires selecting its predecessor u: arc v→u with
	// infinite capacity keeps them on the same cut side.
	for _, e := range edges {
		f.addEdge(e[1], e[0], inf)
	}
	f.maxFlow(s, t)
	sel := f.minCutSourceSide(s)[:n]

	val := 0.0
	for v, on := range sel {
		if on {
			val += w[v]
		}
	}
	return sel, val
}
