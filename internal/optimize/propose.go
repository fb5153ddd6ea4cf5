package optimize

import (
	"itbsim/internal/itbroute"
	"itbsim/internal/routes"
	"itbsim/internal/updown"
)

// propose asks the scheme-specific search for a replacement route. Every
// proposer minimizes the exact add-cost of the new route on the ripped
// load, restricted to the scheme's legal path shape, and resolves ties by
// the network's port order; acceptance (cost strictly below the old
// route's, CDG admission) stays with the caller. The searches are the
// route kernel's (internal/updown), pricing every channel at its add cost:
// the hop-layered DP for up*/down* paths within maxStretch, the
// minimal-DAG DP with breaks priced at the mean add cost for ITB
// re-splits, and the same
// DP with the phase rule off for VC's raw minimal paths.
func (st *state) propose(ref routeRef, old *routes.Route, w float64) (*routes.Route, bool) {
	for c := range st.addw {
		st.addw[c] = st.chanAddCost(c, w)
	}
	cost := updown.Cost{Factor: 1, Weight: st.addw}
	maxHops := old.Hops + maxStretch
	switch st.scheme {
	case routes.UpDown, routes.UpDownMin:
		path, ok := st.ws.BoundedPath(ref.s, ref.d, maxHops, cost)
		if !ok {
			return nil, false
		}
		return st.buildRoute(ref, itbroute.Split{Path: path}, 0)
	case routes.ITBSP, routes.ITBRR:
		path, breaks, ok := st.ws.MinimalSplit(ref.s, ref.d, cost, st.meanAddCost(), true)
		if !ok || len(breaks) > old.NumITBs()+maxExtraITBs {
			return nil, false
		}
		return st.buildRoute(ref, itbroute.Split{Path: path, Breaks: breaks}, 0)
	case routes.VC:
		// Prefer a minimal path on whatever layer admits it; fall back to a
		// bounded-stretch legal path on the escape layer, which always
		// admits (any set of legal paths is jointly acyclic).
		if p, _, ok := st.ws.MinimalSplit(ref.s, ref.d, cost, 0, false); ok {
			if layer, fits := st.vcLayerFor(p); fits {
				return st.buildRoute(ref, itbroute.Split{Path: p}, layer)
			}
		}
		path, ok := st.ws.BoundedPath(ref.s, ref.d, maxHops, cost)
		if !ok {
			return nil, false
		}
		return st.buildRoute(ref, itbroute.Split{Path: path}, 0)
	}
	return nil, false
}

// buildRoute converts a split to a Route carrying the alternative's slot
// and layer. The salt matches Build's convention so in-transit host choice
// at a break switch is stable for the same (pair, alternative).
func (st *state) buildRoute(ref routeRef, sp itbroute.Split, vc int) (*routes.Route, bool) {
	r, err := routes.FromSplit(st.net, sp, ref.s*31+ref.d*17+ref.i)
	if err != nil {
		return nil, false
	}
	r.AltIndex = ref.i
	r.VC = vc
	return r, true
}

// vcLayerFor finds the layer a minimal path would join: the escape layer
// for legal paths, else the first higher layer whose dependency graph
// admits it (probed and immediately rolled back — the accepted move commits
// the admission later).
func (st *state) vcLayerFor(p []int) (int, bool) {
	if st.a.LegalSwitchPath(p) {
		return 0, true
	}
	chans := updown.ChannelSeq(st.net, p)
	for l := 1; l < len(st.layers); l++ {
		if st.layers[l].TryAddRoute(chans) {
			st.layers[l].RemoveRoute(chans)
			return l, true
		}
	}
	return 0, false
}

// meanAddCost is the mean of st.addw, the price of one in-transit buffer
// in the ITB re-split search: spending an ejection must save more than one
// average hop.
func (st *state) meanAddCost() float64 {
	if len(st.addw) == 0 {
		return 0
	}
	var sum float64
	for _, v := range st.addw {
		sum += v
	}
	return sum / float64(len(st.addw))
}
