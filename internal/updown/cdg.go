package updown

import "itbsim/internal/topology"

// ChannelSeq converts a switch path to the sequence of directed channels it
// traverses. A zero- or one-switch path yields nil.
func ChannelSeq(net *topology.Network, path []int) []int {
	if len(path) < 2 {
		return nil
	}
	seq := make([]int, 0, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		l := net.LinkBetween(path[i], path[i+1])
		if l < 0 {
			return nil
		}
		seq = append(seq, net.Channel(l, path[i]))
	}
	return seq
}

// DependencyGraph is the channel dependency graph induced by a set of
// routes: there is an edge c1 -> c2 when some route holds channel c1 and
// requests channel c2 next. Routes that eject packets at in-transit hosts
// must be split into their segments before being added — ejection removes
// the dependency, which is exactly how the ITB mechanism restores deadlock
// freedom.
//
// Edges are reference-counted: several routes typically share one, and it
// leaves the graph only with the last route using it. That lets the route
// optimizer rip routes out of a live table and put others back; LASH layer
// assignment only adds. Each channel's edges are a slice in insertion order
// (a removal moves the last edge into the gap), so every walk is
// deterministic, and no verdict depends on that order.
type DependencyGraph struct {
	adj [][]dep // adj[c]: the dependencies out of channel c

	// Scratch of the reachability walk, reused across calls: channel c is
	// seen in the current walk when seen[c] == epoch.
	epoch uint32
	seen  []uint32
	stack []int32
}

// dep is one dependency edge and the number of route hops inducing it.
type dep struct{ to, refs int32 }

// NewDependencyGraph creates an empty dependency graph over the network's
// directed channels.
func NewDependencyGraph(net *topology.Network) *DependencyGraph {
	n := net.NumChannels()
	return &DependencyGraph{adj: make([][]dep, n), seen: make([]uint32, n)}
}

// find returns the position of edge u -> v in adj[u], or -1.
func (g *DependencyGraph) find(u, v int) int {
	for i, e := range g.adj[u] {
		if int(e.to) == v {
			return i
		}
	}
	return -1
}

// AddRoute adds one reference to each pairwise dependency of a channel
// sequence, without checking for cycles: use it for sequences known to be
// safe (legal up*/down* paths, a route being restored) or before Acyclic.
func (g *DependencyGraph) AddRoute(channels []int) {
	for i := 0; i+1 < len(channels); i++ {
		u, v := channels[i], channels[i+1]
		if j := g.find(u, v); j >= 0 {
			g.adj[u][j].refs++
		} else {
			g.adj[u] = append(g.adj[u], dep{to: int32(v), refs: 1})
		}
	}
}

// RemoveRoute drops one reference from each pairwise dependency of a
// channel sequence added before; an edge leaves with its last reference.
func (g *DependencyGraph) RemoveRoute(channels []int) {
	for i := 0; i+1 < len(channels); i++ {
		u := channels[i]
		j := g.find(u, channels[i+1])
		if j < 0 {
			continue
		}
		if e := g.adj[u]; e[j].refs > 1 {
			e[j].refs--
		} else {
			e[j] = e[len(e)-1]
			g.adj[u] = e[:len(e)-1]
		}
	}
}

// TryAddRoute adds the pairwise dependencies of a channel sequence only if
// the graph stays acyclic, reporting whether it did. On failure the graph is
// left exactly as it was. This is the admission test of layered (LASH-style)
// route assignment and of the route optimizer's moves: a path joins a
// layer only when its dependencies keep that layer's CDG cycle-free.
//
// The check is incremental: a new edge u -> v creates a cycle iff u is
// already reachable from v, so each genuinely new edge costs one walk over
// the current graph; an edge already present only gains a reference.
func (g *DependencyGraph) TryAddRoute(channels []int) bool {
	for i := 0; i+1 < len(channels); i++ {
		u, v := channels[i], channels[i+1]
		if g.find(u, v) < 0 && (u == v || g.reaches(v, u)) {
			g.RemoveRoute(channels[:i+1])
			return false
		}
		g.AddRoute(channels[i : i+2])
	}
	return true
}

// reaches reports whether dst is reachable from src (src != dst) over the
// current edges.
//
//sim:hotpath
func (g *DependencyGraph) reaches(src, dst int) bool {
	g.epoch++
	if g.epoch == 0 {
		clear(g.seen)
		g.epoch = 1
	}
	g.seen[src] = g.epoch
	stack := append(g.stack[:0], int32(src))
	found := false
	for len(stack) > 0 && !found {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[c] {
			if int(e.to) == dst {
				found = true
				break
			}
			if g.seen[e.to] != g.epoch {
				g.seen[e.to] = g.epoch
				stack = append(stack, e.to)
			}
		}
	}
	g.stack = stack
	return found
}

// Acyclic reports whether the dependency graph has no cycles. An acyclic
// CDG is the classic sufficient condition for deadlock freedom of wormhole
// or cut-through routing (Dally & Seitz).
func (g *DependencyGraph) Acyclic() bool {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]byte, len(g.adj))
	// Iterative DFS with an explicit stack to survive large graphs.
	type frame struct{ node, next int }
	var stack []frame
	for start := range g.adj {
		if color[start] != white {
			continue
		}
		color[start] = grey
		stack = append(stack[:0], frame{node: start})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next == len(g.adj[f.node]) {
				color[f.node] = black
				stack = stack[:len(stack)-1]
				continue
			}
			c := int(g.adj[f.node][f.next].to)
			f.next++
			switch color[c] {
			case grey:
				return false
			case white:
				color[c] = grey
				stack = append(stack, frame{node: c})
			}
		}
	}
	return true
}
