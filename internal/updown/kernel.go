package updown

import "math"

// This file is the legal-path search kernel every route builder shares: the
// simple_routes emulation, UD-MIN's enumeration, the ITB minimal splits and
// the route optimizer's proposals all run here. It has three parts:
//
//   - the (switch, phase) state graph of an Assignment in CSR form, built once
//     by NewAssignment: state 2*switch+phase, its moves in port order, each
//     with the directed channel it crosses;
//   - all-pairs raw hop distances with every switch's BFS order, built at the
//     same time;
//   - the Workspace: per-state cost and predecessor arrays invalidated by an
//     epoch stamp instead of being reallocated, and a typed binary heap.
//
// Every search relaxes moves in port order with strict-< improvement, so its
// result is a pure function of the network's link insertion order.

// move is one edge of the state graph.
type move struct {
	to int32 // target state: 2*switch + phase
	ch int32 // directed channel crossed
}

// buildKernel lays out the state graph and the raw distance tables. From
// phaseUp every hop is legal (an up hop keeps phaseUp, a down hop enters
// phaseDown); from phaseDown only down hops are.
func (a *Assignment) buildKernel() {
	net := a.Net
	n := net.Switches
	a.off = make([]int32, 2*n+1)
	a.moves = make([]move, 0, 4*len(net.Links))
	for sw := 0; sw < n; sw++ {
		for ph := phaseUp; ph <= phaseDown; ph++ {
			for _, nb := range net.Neighbors(sw) {
				to := 2*nb.Switch + phaseDown
				if a.IsUpHop(nb.Link, sw) {
					if ph == phaseDown {
						continue
					}
					to = 2*nb.Switch + phaseUp
				}
				a.moves = append(a.moves, move{to: int32(to), ch: int32(net.Channel(nb.Link, sw))})
			}
			a.off[2*sw+ph+1] = int32(len(a.moves))
		}
	}
	a.raw = make([]int32, n*n)
	a.order = make([]int32, 0, n*n)
	for s := 0; s < n; s++ {
		d := a.raw[s*n : (s+1)*n]
		for i := range d {
			d[i] = -1
		}
		d[s] = 0
		head := len(a.order)
		a.order = append(a.order, int32(s))
		for ; head < len(a.order); head++ {
			u := a.order[head]
			for _, nb := range net.Neighbors(int(u)) {
				if d[nb.Switch] < 0 {
					d[nb.Switch] = d[u] + 1
					a.order = append(a.order, int32(nb.Switch))
				}
			}
		}
	}
}

// movesOf returns the moves out of state s, in port order.
func (a *Assignment) movesOf(s int32) []move { return a.moves[a.off[s]:a.off[s+1]] }

// RawDistances returns the hop distance in the raw switch graph between
// switch dst and every switch (the graph is undirected, so it is also the
// distance from every switch to dst). The slice is shared and read-only.
func (a *Assignment) RawDistances(dst int) []int32 {
	n := a.Net.Switches
	return a.raw[dst*n : (dst+1)*n : (dst+1)*n]
}

// Cost prices a hop across directed channel c at Hop + Factor*Weight[c]; a
// nil Weight prices every hop at Hop. Prices must be non-negative.
type Cost struct {
	Hop, Factor float64
	Weight      []float64
}

// after returns the cost of a path of cost cur extended across channel c.
func (k Cost) after(cur float64, c int32) float64 {
	cur += k.Hop
	if k.Weight != nil {
		cur += k.Factor * k.Weight[c]
	}
	return cur
}

// Workspace is the reusable scratch state of the kernel's searches over one
// Assignment. A Workspace is not safe for concurrent use; each caller that
// searches (a Build call, an optimizer pass) owns its own.
type Workspace struct {
	a     *Assignment
	epoch uint32
	stamp []uint32  // per state: dist and prev are valid when stamp == epoch
	dist  []float64 // per state: cost of the best path found
	prev  []int32   // per state: predecessor (search) or successor (minimal)
	heap  []item

	// The hop-layered tables of BoundedPath, grown on demand.
	layerCost []float64
	layerPrev []int32
}

// NewWorkspace returns a workspace for searches over a.
func NewWorkspace(a *Assignment) *Workspace {
	s := 2 * a.Net.Switches
	return &Workspace{a: a, stamp: make([]uint32, s), dist: make([]float64, s), prev: make([]int32, s)}
}

// reset invalidates every state in O(1).
func (w *Workspace) reset() {
	w.epoch++
	if w.epoch == 0 {
		clear(w.stamp)
		w.epoch = 1
	}
	w.heap = w.heap[:0]
}

// cost returns the best cost found for state s, +Inf if none.
func (w *Workspace) cost(s int32) float64 {
	if w.stamp[s] != w.epoch {
		return math.Inf(1)
	}
	return w.dist[s]
}

func (w *Workspace) set(s int32, c float64, p int32) {
	w.stamp[s], w.dist[s], w.prev[s] = w.epoch, c, p
}

// item is one heap entry: a state reached at cost over hops moves.
type item struct {
	cost  float64
	hops  int32
	state int32
}

// before orders heap items by (cost, hops, switch, phase); the state number
// 2*switch+phase sorts exactly like (switch, phase).
func (x item) before(y item) bool {
	if x.cost != y.cost {
		return x.cost < y.cost
	}
	if x.hops != y.hops {
		return x.hops < y.hops
	}
	return x.state < y.state
}

//sim:hotpath
func (w *Workspace) push(it item) {
	h := append(w.heap, it)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	w.heap = h
}

//sim:hotpath
func (w *Workspace) pop() item {
	h := w.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h[r].before(h[m]) {
			m = r
		}
		if !h[m].before(h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	w.heap = h
	return top
}

// search runs Dijkstra from (src, phaseUp) under k and returns the first
// state of switch dst to pop, or -1 once the queue drains (dst < 0 settles
// every reachable state). A state is pushed again only at a strictly lower
// cost, so no two heap items tie and the pop order — hence every path — does
// not depend on the heap's layout.
//
//sim:hotpath
func (w *Workspace) search(src, dst int, k Cost) int32 {
	w.reset()
	s := int32(2 * src)
	w.set(s, 0, -1)
	w.push(item{state: s})
	for len(w.heap) > 0 {
		it := w.pop()
		if it.cost > w.dist[it.state] {
			continue
		}
		if int(it.state>>1) == dst {
			return it.state
		}
		for _, m := range w.a.movesOf(it.state) {
			if c := k.after(it.cost, m.ch); c < w.cost(m.to) {
				w.set(m.to, c, it.state)
				w.push(item{cost: c, hops: it.hops + 1, state: m.to})
			}
		}
	}
	return -1
}

// trace returns the switch path of the last search ending at state t.
func (w *Workspace) trace(t int32) []int {
	n := 0
	for s := t; s >= 0; s = w.prev[s] {
		n++
	}
	p := make([]int, n)
	for s := t; s >= 0; s = w.prev[s] {
		n--
		p[n] = int(s >> 1)
	}
	return p
}

// LegalDistances returns, for a source switch, the minimal number of links
// of any legal up*/down* path to every switch (-1 where there is none).
func (w *Workspace) LegalDistances(src int) []int {
	w.search(src, -1, Cost{Hop: 1})
	out := make([]int, w.a.Net.Switches)
	for sw := range out {
		d := min(w.cost(int32(2*sw)), w.cost(int32(2*sw+1)))
		out[sw] = -1
		if !math.IsInf(d, 1) {
			out[sw] = int(d)
		}
	}
	return out
}

// ShortestLegalPaths enumerates up to limit shortest legal up*/down* switch
// paths from src to dst, in deterministic (port-order) DFS order. It
// returns nil if dst is unreachable (cannot happen in a connected network:
// the spanning tree itself is legal). src == dst yields a single
// zero-length path.
//
// The DFS follows moves that shorten the remaining legal distance to dst by
// one. One search from dst provides those distances, because reversing a
// legal path gives a legal path (a reversed down hop is an up hop): the
// all-down continuation from (sw, phaseDown) reverses to an all-up path
// from dst, which ends in state (sw, phaseUp); a legal continuation from
// (sw, phaseUp) reverses to a legal path from dst ending in either phase.
func (w *Workspace) ShortestLegalPaths(src, dst, limit int) [][]int {
	if src == dst {
		return [][]int{{src}}
	}
	w.search(dst, -1, Cost{Hop: 1})
	rem := func(s int32) float64 {
		if s&1 == phaseDown {
			return w.cost(s - 1)
		}
		return min(w.cost(s), w.cost(s+1))
	}
	total := rem(int32(2 * src))
	if math.IsInf(total, 1) {
		return nil
	}
	var out [][]int
	path := make([]int, 1, int(total)+1)
	path[0] = src
	var dfs func(s int32)
	dfs = func(s int32) {
		if int(s>>1) == dst {
			out = append(out, append([]int(nil), path...))
			return
		}
		next := rem(s) - 1
		for _, m := range w.a.movesOf(s) {
			if len(out) >= limit {
				return
			}
			if rem(m.to) != next {
				continue
			}
			path = append(path, int(m.to>>1))
			dfs(m.to)
			path = path[:len(path)-1]
		}
	}
	dfs(int32(2 * src))
	return out
}

// MinimalSplit returns the cheapest raw-minimal path from src to dst under
// k, split into legal up*/down* segments at in-transit hosts costing brk
// each; breaks lists the path indices where the packet is ejected. It is a
// dynamic program over the minimal-path DAG (moves along which the raw
// distance to dst drops by one) crossed with the phase, swept outward from
// dst in BFS order over only the switches on some minimal src -> dst path.
// Each state keeps its first port-order move of strictly least cost; a break
// (eject at a switch with hosts, continue from the same switch in phaseUp)
// replaces the phaseDown choice only when strictly cheaper. With phased
// false the phase rule is off: every move stays in phaseUp, giving the
// cheapest raw minimal path with no breaks. ok is false when src == dst or
// no minimal path can be split.
func (w *Workspace) MinimalSplit(src, dst int, k Cost, brk float64, phased bool) (path, breaks []int, ok bool) {
	if src == dst || !w.minimal(src, dst, k, brk, phased) {
		return nil, nil, false
	}
	path = make([]int, 1, w.a.RawDistances(dst)[src]+1)
	path[0] = src
	for s := int32(2 * src); int(s>>1) != dst; {
		next := w.prev[s]
		if next>>1 == s>>1 {
			breaks = append(breaks, len(path)-1)
		} else {
			path = append(path, int(next>>1))
		}
		s = next
	}
	return path, breaks, true
}

// minimal runs MinimalSplit's sweep and reports whether (src, phaseUp) can
// reach dst.
//
//sim:hotpath
func (w *Workspace) minimal(src, dst int, k Cost, brk float64, phased bool) bool {
	a := w.a
	n := a.Net.Switches
	rem, from := a.RawDistances(dst), a.RawDistances(src)
	far := rem[src]
	inf := math.Inf(1)
	w.reset()
	w.set(int32(2*dst), 0, -1)
	w.set(int32(2*dst+1), 0, -1)
	for _, sw := range a.order[dst*n+1 : (dst+1)*n] {
		r := rem[sw]
		if r > far {
			break
		}
		if from[sw]+r != far {
			continue
		}
		up := 2 * sw
		bestUp, bestDown := inf, inf
		nextUp, nextDown := int32(-1), int32(-1)
		for _, m := range a.movesOf(up) {
			if rem[m.to>>1] != r-1 {
				continue
			}
			to := m.to
			if !phased {
				to &^= 1
			}
			c := k.after(w.cost(to), m.ch)
			if c < bestUp {
				bestUp, nextUp = c, to
			}
			if to&1 == phaseDown && c < bestDown {
				bestDown, nextDown = c, to
			}
		}
		if phased && len(a.Net.HostsAt(int(sw))) > 0 && bestUp+brk < bestDown {
			bestDown, nextDown = bestUp+brk, up
		}
		w.set(up, bestUp, nextUp)
		w.set(up+1, bestDown, nextDown)
	}
	return w.cost(int32(2*src)) < inf
}

// BoundedPath returns the cheapest legal path from src to dst of at most
// maxHops hops under k, by a hop-layered dynamic program over the state
// graph. Relaxations run in (hop, switch, phase, port) order with strict-<
// improvement, so equal-cost ties go to the earliest state in that order;
// across hop counts the shorter path wins a tie.
func (w *Workspace) BoundedPath(src, dst, maxHops int, k Cost) ([]int, bool) {
	if maxHops < 1 || src == dst {
		return nil, false
	}
	states := len(w.stamp)
	if size := (maxHops + 1) * states; len(w.layerCost) < size {
		w.layerCost = make([]float64, size)
		w.layerPrev = make([]int32, size)
	}
	h, t := w.bounded(src, dst, maxHops, k)
	if h < 0 {
		return nil, false
	}
	path := make([]int, h+1)
	for ; h > 0; h-- {
		path[h] = int(t >> 1)
		t = w.layerPrev[h*states+int(t)]
	}
	path[0] = int(t >> 1)
	return path, true
}

// bounded fills BoundedPath's tables and returns the hop count and final
// state of the best path, or -1.
//
//sim:hotpath
func (w *Workspace) bounded(src, dst, maxHops int, k Cost) (int, int32) {
	states := len(w.stamp)
	cost, prev := w.layerCost[:(maxHops+1)*states], w.layerPrev
	inf := math.Inf(1)
	for i := range cost {
		cost[i] = inf
	}
	cost[2*src] = 0
	for h := 0; h < maxHops; h++ {
		layer, next := cost[h*states:(h+1)*states], cost[(h+1)*states:(h+2)*states]
		for s, c := range layer {
			if math.IsInf(c, 1) {
				continue
			}
			for _, m := range w.a.movesOf(int32(s)) {
				if nc := k.after(c, m.ch); nc < next[m.to] {
					next[m.to] = nc
					prev[(h+1)*states+int(m.to)] = int32(s)
				}
			}
		}
	}
	best, bestH, bestS := inf, -1, int32(0)
	for h := 1; h <= maxHops; h++ {
		for s := int32(2 * dst); s <= int32(2*dst+1); s++ {
			if c := cost[h*states+int(s)]; c < best {
				best, bestH, bestS = c, h, s
			}
		}
	}
	return bestH, bestS
}
