package graph

// This file contains traversal primitives used by verifiers, baselines and
// the local algorithms' ground-truth checks: bounded BFS, pairwise
// distances, connectivity and component structure.

// Dist returns the shortest-path distance between u and v, exploring at
// most maxDepth hops (maxDepth < 0 means unbounded). It returns -1 if v is
// unreachable within the bound.
func (g *Graph) Dist(u, v, maxDepth int) int {
	if u == v {
		return 0
	}
	if maxDepth == 0 {
		return -1
	}
	// Bidirectional would be faster but plain BFS keeps the verifier code
	// obviously correct; verification runs on small instances.
	dist := make(map[int]int, 64)
	dist[u] = 0
	frontier := []int{u}
	for len(frontier) > 0 {
		var next []int
		for _, x := range frontier {
			d := dist[x]
			if maxDepth >= 0 && d >= maxDepth {
				continue
			}
			for _, w := range g.Neighbors(x) {
				if _, seen := dist[w]; seen {
					continue
				}
				if w == v {
					return d + 1
				}
				dist[w] = d + 1
				next = append(next, w)
			}
		}
		frontier = next
	}
	return -1
}

// BFSWithin returns all vertices at distance <= radius from v (including v)
// together with their distances, in discovery order. Neighbor lists are
// walked in probe order, so the discovery order matches what an oracle-
// driven BFS would see on the same graph.
func (g *Graph) BFSWithin(v, radius int) (order []int, dist map[int]int) {
	dist = map[int]int{v: 0}
	order = []int{v}
	for qi := 0; qi < len(order); qi++ {
		x := order[qi]
		d := dist[x]
		if radius >= 0 && d >= radius {
			continue
		}
		for _, w := range g.Neighbors(x) {
			if _, seen := dist[w]; !seen {
				dist[w] = d + 1
				order = append(order, w)
			}
		}
	}
	return order, dist
}

// Components returns the component ID of each vertex (IDs are 0-based in
// order of lowest-numbered member) and the number of components.
func (g *Graph) Components() (comp []int, count int) {
	comp = make([]int, g.N())
	for i := range comp {
		comp[i] = -1
	}
	var queue []int
	for v := 0; v < g.N(); v++ {
		if comp[v] != -1 {
			continue
		}
		comp[v] = count
		queue = append(queue[:0], v)
		for len(queue) > 0 {
			x := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range g.Neighbors(x) {
				if comp[w] == -1 {
					comp[w] = count
					queue = append(queue, w)
				}
			}
		}
		count++
	}
	return comp, count
}

// IsConnected reports whether the graph has at most one component.
func (g *Graph) IsConnected() bool {
	if g.N() == 0 {
		return true
	}
	_, c := g.Components()
	return c <= 1
}

// SameComponents reports whether h preserves the component structure of g:
// every pair of vertices connected in g is connected in h. (h is typically
// a spanning subgraph of g, so the converse holds trivially.)
func SameComponents(g, h *Graph) bool {
	if g.N() != h.N() {
		return false
	}
	cg, _ := g.Components()
	ch, _ := h.Components()
	// Vertices in the same g-component must map to the same h-component.
	rep := make(map[int]int)
	for v := 0; v < g.N(); v++ {
		if r, ok := rep[cg[v]]; ok {
			if ch[v] != r {
				return false
			}
		} else {
			rep[cg[v]] = ch[v]
		}
	}
	return true
}

// Girth returns the length of the shortest cycle, or -1 for a forest.
// O(n*m): one BFS per vertex, detecting the first non-tree edge that
// closes a cycle through the root's BFS layers.
func (g *Graph) Girth() int {
	best := -1
	dist := make([]int, g.N())
	parent := make([]int, g.N())
	for src := 0; src < g.N(); src++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		parent[src] = -1
		queue := []int{src}
		for qi := 0; qi < len(queue); qi++ {
			x := queue[qi]
			if best >= 0 && 2*dist[x] >= best {
				break // no shorter cycle reachable from here
			}
			for _, w := range g.Neighbors(x) {
				if dist[w] == -1 {
					dist[w] = dist[x] + 1
					parent[w] = x
					queue = append(queue, w)
					continue
				}
				if w == parent[x] {
					continue
				}
				// Non-tree edge: a cycle through src of length at most
				// dist[x] + dist[w] + 1 (exact for the first one found at
				// minimal levels).
				if c := dist[x] + dist[w] + 1; best < 0 || c < best {
					best = c
				}
			}
		}
	}
	return best
}

// AllDistancesFrom returns dist[v] for all v reachable from src (-1 for
// unreachable), via BFS.
func (g *Graph) AllDistancesFrom(src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for qi := 0; qi < len(queue); qi++ {
		x := queue[qi]
		for _, w := range g.Neighbors(x) {
			if dist[w] == -1 {
				dist[w] = dist[x] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}
