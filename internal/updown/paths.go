package updown

import "fmt"

// BalancedConfig tunes the simple_routes emulation.
type BalancedConfig struct {
	// LoadFactor scales the accumulated per-channel weight against the
	// unit hop cost. Larger values trade longer paths for better balance,
	// as Myricom's simple_routes does with its weighted links.
	LoadFactor float64
}

// DefaultBalancedConfig matches the behaviour described in §4.5: balance
// traffic among links, even at the price of a non-minimal up*/down* path.
func DefaultBalancedConfig() BalancedConfig { return BalancedConfig{LoadFactor: 1} }

// BalancedRoutes emulates the simple_routes program shipped with Myricom's
// GM: it selects one legal up*/down* path for every ordered switch pair,
// balancing traffic using weighted links. Pairs are visited in an
// interleaved deterministic order; each selected path increments the weight
// of the directed channels it uses, and subsequent selections minimise
// (hops + LoadFactor * accumulated weight) over the legal-path state graph
// via the kernel's Dijkstra search. The result is indexed [src][dst] and
// contains switch paths (src == dst maps to the single-switch path).
func (a *Assignment) BalancedRoutes(cfg BalancedConfig) [][][]int {
	net := a.Net
	n := net.Switches
	w := NewWorkspace(a)
	weight := make([]float64, net.NumChannels())
	k := Cost{Hop: 1, Factor: cfg.LoadFactor, Weight: weight}
	routes := make([][][]int, n)
	for s := range routes {
		routes[s] = make([][]int, n)
		routes[s][s] = []int{s}
	}
	for offset := 1; offset < n; offset++ {
		for src := 0; src < n; src++ {
			dst := (src + offset) % n
			t := w.search(src, dst, k)
			if t < 0 {
				// Unreachable pairs cannot occur in a connected network.
				panic(fmt.Sprintf("updown: no legal path %d -> %d", src, dst))
			}
			p := w.trace(t)
			routes[src][dst] = p
			for i := 0; i+1 < len(p); i++ {
				weight[net.Channel(net.LinkBetween(p[i], p[i+1]), p[i])]++
			}
		}
	}
	return routes
}
