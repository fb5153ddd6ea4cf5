package routes

import (
	"fmt"

	"itbsim/internal/itbroute"
	"itbsim/internal/topology"
	"itbsim/internal/updown"
)

// This file builds VC-scheme tables: minimal routing made deadlock-free by
// assigning every route to one virtual-channel layer (LASH — LAyered
// SHortest-path routing, Skeie et al.), adapted to the repo's up*/down*
// machinery so the escape layer is always available:
//
//   - Layer 0 is the escape layer. Only up*/down*-legal paths are admitted,
//     and any set of legal paths is jointly deadlock-free (the legality
//     rule forbids the down->up transition that closes dependency cycles),
//     so admission to layer 0 never fails.
//   - Layers 1..VCs-1 admit raw-graph minimal paths greedily, in
//     deterministic (src, dst, alternative) order, each admission checked
//     with DependencyGraph.TryAddRoute so the layer's channel dependency
//     graph stays acyclic.
//   - A pair none of whose minimal paths fit anywhere falls back to its
//     balanced up*/down* path on layer 0 — the same path the UP/DOWN
//     scheme would use — so the table is always total.
//
// Because a packet keeps its layer for the whole journey, the switch never
// re-lanes traffic: the VC is part of the source route, exactly in the
// Myrinet spirit of pushing intelligence to the hosts.

// buildVC fills t.Alts and t.NumVCs for the VC scheme.
func buildVC(net *topology.Network, a *updown.Assignment, cfg Config, t *Table) error {
	k := cfg.VCs
	if k <= 0 {
		k = 2
	}
	t.NumVCs = k
	layers := make([]*updown.DependencyGraph, k)
	for i := range layers {
		layers[i] = updown.NewDependencyGraph(net)
	}
	balanced := a.BalancedRoutes(cfg.Balanced)
	n := net.Switches
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				r, err := routeFromSplit(net, itbroute.Split{Path: []int{s}})
				if err != nil {
					return err
				}
				t.Alts[s][d] = []*Route{r}
				continue
			}
			var alts []*Route
			for _, p := range itbroute.MinimalPaths(a, s, d, cfg.MaxAlternatives) {
				layer := assignLayer(a, layers, p)
				if layer < 0 {
					continue
				}
				r, err := routeFromSplit(net, itbroute.Split{Path: p})
				if err != nil {
					return err
				}
				r.AltIndex = len(alts)
				r.VC = layer
				alts = append(alts, r)
			}
			if len(alts) == 0 {
				// No minimal path fit any layer: take the balanced
				// up*/down* path on the escape layer, which is legal by
				// construction and therefore always admissible.
				p := balanced[s][d]
				if len(p) == 0 {
					return fmt.Errorf("routes: no balanced fallback path %d -> %d", s, d)
				}
				r, err := routeFromSplit(net, itbroute.Split{Path: p})
				if err != nil {
					return err
				}
				layers[0].AddRoute(updown.ChannelSeq(net, p))
				alts = []*Route{r}
			}
			t.Alts[s][d] = alts
		}
	}
	return nil
}

// assignLayer finds the lowest layer that admits path p, records p's
// channel dependencies in it, and returns its index; -1 if no layer admits
// the path. Layer 0 takes only up*/down*-legal paths (kept jointly acyclic
// by the legality rule itself); higher layers take any path whose
// dependencies keep the layer's CDG acyclic.
func assignLayer(a *updown.Assignment, layers []*updown.DependencyGraph, p []int) int {
	chans := updown.ChannelSeq(a.Net, p)
	if a.LegalSwitchPath(p) {
		layers[0].AddRoute(chans)
		return 0
	}
	for i := 1; i < len(layers); i++ {
		if layers[i].TryAddRoute(chans) {
			return i
		}
	}
	return -1
}

// EscapeCDGs rebuilds the per-layer channel dependency graphs implied by a
// VC table's routes and returns them, layer 0 (the escape layer) first.
// Deadlock freedom of the whole fabric follows when every returned graph is
// acyclic — the property the VC acceptance tests assert for each topology.
func (t *Table) EscapeCDGs() []*updown.DependencyGraph {
	k := t.NumVCs
	if k == 0 {
		k = 1
	}
	layers := make([]*updown.DependencyGraph, k)
	for i := range layers {
		layers[i] = updown.NewDependencyGraph(t.Net)
	}
	for s := range t.Alts {
		for d := range t.Alts[s] {
			for _, r := range t.Alts[s][d] {
				for _, seg := range r.Segs {
					layers[r.VC].AddRoute(seg.Channels)
				}
			}
		}
	}
	return layers
}
