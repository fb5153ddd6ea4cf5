// Package itbroute computes minimal source routes that use in-transit
// buffers (ITBs) to remain deadlock-free. The in-transit buffer mechanism
// (§3 of the paper) splits a minimal path that is forbidden under up*/down*
// into several valid up*/down* subpaths: at the switch where a down→up
// transition would occur, the packet is addressed to a host attached to that
// switch, completely ejected from the network, and re-injected as soon as
// possible. Each subpath is a legal up*/down* path, so the composed route is
// deadlock-free while always following a minimal path.
//
// The package is pure path computation: it produces candidate Splits (a
// minimal path with its ITB placements) and leaves scheme assembly,
// alternative selection, and table packaging to internal/routes. Each ITB
// costs latency at its host — the simulator charges the detection and DMA
// delays of netsim.Params — so Splits place breaks only where the
// up*/down* rule forces one, keeping the ITB count minimal for the path.
package itbroute

import (
	"fmt"

	"itbsim/internal/updown"
)

// Split is a minimal switch path broken into legal up*/down* segments.
type Split struct {
	// Path is the full switch path, source switch to destination switch.
	Path []int
	// Breaks lists indices into Path (strictly between 0 and len(Path)-1)
	// where the packet is ejected into an in-transit host. Empty means the
	// path is already a legal up*/down* path.
	Breaks []int
}

// NumITBs returns the number of in-transit hosts the split uses.
func (s Split) NumITBs() int { return len(s.Breaks) }

// Segments returns the switch subpaths between breaks. Each segment shares
// its boundary switch with the next (the packet leaves and re-enters the
// network at the same switch).
func (s Split) Segments() [][]int {
	bounds := make([]int, 0, len(s.Breaks)+2)
	bounds = append(bounds, 0)
	bounds = append(bounds, s.Breaks...)
	bounds = append(bounds, len(s.Path)-1)
	segs := make([][]int, 0, len(bounds)-1)
	for i := 0; i+1 < len(bounds); i++ {
		segs = append(segs, s.Path[bounds[i]:bounds[i+1]+1])
	}
	return segs
}

// MinimalPaths enumerates up to limit shortest paths in the raw switch graph
// from src to dst, in deterministic port-order DFS order. src == dst yields
// the single zero-length path. The truncated result is always the
// input-order prefix of the full enumeration: which paths a cap keeps is a
// pure function of the network's link insertion (port) order, never of
// traversal accidents (pinned by TestEnumerationIsInputOrderPrefix).
func MinimalPaths(a *updown.Assignment, src, dst, limit int) [][]int {
	var out [][]int
	walkMinimalPaths(a, src, dst, func(path []int) bool {
		cp := make([]int, len(path))
		copy(cp, path)
		out = append(out, cp)
		return len(out) < limit
	})
	return out
}

// walkMinimalPaths drives the port-order DFS behind MinimalPaths, invoking
// fn for every shortest raw-graph path from src to dst until fn returns
// false. The callback borrows the path slice; callers keeping it must copy.
// Streaming lets MinimalSplits apply its candidate cap after split
// feasibility is known instead of truncating the raw enumeration. The
// remaining distances come from the Assignment's raw distance table, built
// once per Assignment rather than by one BFS per pair.
func walkMinimalPaths(a *updown.Assignment, src, dst int, fn func(path []int) bool) {
	if src == dst {
		fn([]int{src})
		return
	}
	net := a.Net
	rem := a.RawDistances(dst)
	path := make([]int, 0, rem[src]+1)
	path = append(path, src)
	more := true
	var dfs func(sw int)
	dfs = func(sw int) {
		if !more {
			return
		}
		if sw == dst {
			more = fn(path)
			return
		}
		for _, nb := range net.Neighbors(sw) {
			if rem[nb.Switch] != rem[sw]-1 {
				continue
			}
			path = append(path, nb.Switch)
			dfs(nb.Switch)
			path = path[:len(path)-1]
			if !more {
				return
			}
		}
	}
	dfs(src)
}

// SplitPath breaks an arbitrary switch path into legal up*/down* segments by
// inserting in-transit hosts. It walks the path keeping track of the
// up*/down* phase; when the next hop would take an "up" link after a "down"
// link, the current segment is terminated at the latest switch visited so
// far that has at least one host attached (normally the current switch),
// and a new segment starts there with a fresh "up" phase.
//
// It returns an error if a needed break point has no host attached anywhere
// in the pending segment; this cannot happen in the paper's topologies,
// where every switch has 8 hosts.
func SplitPath(a *updown.Assignment, path []int) (Split, error) {
	net := a.Net
	s := Split{Path: path}
	if len(path) < 2 {
		return s, nil
	}
	segStart := 0     // index of the first switch of the current segment
	goneDown := false // current segment has taken a down hop
	for i := 0; i+1 < len(path); i++ {
		l := net.LinkBetween(path[i], path[i+1])
		if l < 0 {
			return Split{}, fmt.Errorf("itbroute: switches %d and %d not adjacent", path[i], path[i+1])
		}
		up := a.IsUpHop(l, path[i])
		if up && goneDown {
			// Must break the segment at or before switch i. Prefer the
			// current switch; fall back towards the segment start until a
			// switch with hosts is found. Breaking earlier is always safe:
			// the prefix remains a legal up*/down* path, and the walk is
			// re-run from the break.
			br := -1
			for j := i; j > segStart; j-- {
				if len(net.HostsAt(path[j])) > 0 {
					br = j
					break
				}
			}
			if br < 0 {
				return Split{}, fmt.Errorf("itbroute: no host available to break path %v at index %d", path, i)
			}
			s.Breaks = append(s.Breaks, br)
			segStart = br
			goneDown = false
			// Re-scan from the break: hops between br and i are re-played
			// in the fresh phase.
			i = br - 1
			continue
		}
		if !up {
			goneDown = true
		}
	}
	// Sanity: each segment must be a legal up*/down* path.
	for _, seg := range s.Segments() {
		if !a.LegalSwitchPath(seg) {
			return Split{}, fmt.Errorf("itbroute: internal error: segment %v of %v is illegal", seg, path)
		}
	}
	return s, nil
}

// MinimalSplits enumerates minimal paths from src to dst in port-order DFS
// order and splits each into legal up*/down* segments, keeping the first
// `limit` splittable ones. Paths that cannot be split (no host at a needed
// break switch) are skipped without consuming the cap: the limit bounds the
// selection set handed to the schemes, so it must count candidates, not raw
// enumeration positions. (It previously truncated the raw enumeration
// before testing splittability, so a pair whose first `limit` minimal paths
// crossed host-less break switches reported "no splittable minimal path"
// — or a thinner alternative set — even when splittable equal-length paths
// sat just past the cap; which paths survived was an artifact of
// enumeration order. Pinned by TestMinimalSplitsCapCountsSplittable.)
// An error is returned only if no minimal path at all could be split.
func MinimalSplits(a *updown.Assignment, src, dst, limit int) ([]Split, error) {
	any := false
	out := make([]Split, 0, limit)
	walkMinimalPaths(a, src, dst, func(path []int) bool {
		any = true
		cp := make([]int, len(path))
		copy(cp, path)
		sp, err := SplitPath(a, cp)
		if err != nil {
			return true // unsplittable: skip, keep enumerating
		}
		out = append(out, sp)
		return len(out) < limit
	})
	if !any {
		return nil, fmt.Errorf("itbroute: no path %d -> %d", src, dst)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("itbroute: no splittable minimal path %d -> %d", src, dst)
	}
	return out, nil
}

// BestSplit returns the preferred single minimal split for ITB-SP: fewest
// in-transit buffers first (a legal minimal up*/down* path needs none), then
// enumeration order.
//
// Note that BestSplit only orders the splits it is handed. When the
// candidate set comes from a capped enumeration (MinimalSplits with a
// limit), the result inherits the enumeration-order bias of the cap: the
// globally fewest-ITB minimal path may not be among the first `limit`
// DFS-order paths at all. That bias is deliberate in table construction —
// globally preferring legal (0-ITB) minimal paths would funnel ITB-SP back
// onto the root-concentrated up*/down* paths and forfeit the scheme's
// throughput win — so Build keeps BestSplit over the capped window and
// OptimalSplit exists as a separate primitive for callers (the route
// optimizer) that want the true fewest-ITB path for a specific pair.
func BestSplit(splits []Split) Split {
	best := splits[0]
	for _, s := range splits[1:] {
		if s.NumITBs() < best.NumITBs() {
			best = s
		}
	}
	return best
}

// OptimalSplit returns a minimal path from src to dst split with the fewest
// in-transit buffers achievable over ALL minimal paths: the route kernel's
// dynamic program over the minimal-path DAG crossed with the up*/down*
// phase (updown.Workspace.MinimalSplit) with hop cost 0 and break cost 1.
// Unlike BestSplit(MinimalSplits(...)) it is independent of any enumeration
// cap: the capped DFS enumeration keeps a recursion-order prefix of the
// equal-length path set, so with many minimal alternatives the fewest-ITB
// path can sit past the cap and the selection silently degrades by
// enumeration order. The DP is deterministic and input-order driven — each
// state keeps its first port-order move of strictly least cost, and a break
// only when strictly cheaper — so equal-cost ties resolve by the caller's
// link insertion order, never by traversal accidents.
//
// It returns an error only when no minimal path can be split at all (a
// needed break switch has no host anywhere in its segment), matching
// MinimalSplits.
func OptimalSplit(a *updown.Assignment, src, dst int) (Split, error) {
	if src == dst {
		return Split{Path: []int{src}}, nil
	}
	path, breaks, ok := updown.NewWorkspace(a).MinimalSplit(src, dst, updown.Cost{}, 1, true)
	if !ok {
		return Split{}, fmt.Errorf("itbroute: no splittable minimal path %d -> %d", src, dst)
	}
	return Split{Path: path, Breaks: breaks}, nil
}
