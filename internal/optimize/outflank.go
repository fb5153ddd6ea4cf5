package optimize

// escapePrune is the OutFlank-style adaptive-escape baseline: for every
// pair with several route alternatives, score each alternative by the
// hottest criticality it meets along its channels and keep only those
// within EscapeSlack (additive, in the caller's criticality units) of the
// pair's best score — so round-robin selection escapes around hotspots
// instead of marching through them. It
// never computes a new path: the kept set is a subset of the routes the
// builder already proved deadlock-free, so removing the rest can only
// shrink the dependency graphs. Load accounting and the layer CDGs are
// updated so Stats costs stay exact.
func (st *state) escapePrune(stats *Stats) {
	slack := st.cfg.EscapeSlack
	for s := range st.alts {
		for d := range st.alts[s] {
			if s == d || len(st.alts[s][d]) < 2 {
				continue
			}
			alts := st.alts[s][d]
			scores := make([]float64, len(alts))
			best := -1.0
			for i, r := range alts {
				var max float64
				for _, seg := range r.Segs {
					for _, c := range seg.Channels {
						if st.crit[c] > max {
							max = st.crit[c]
						}
					}
				}
				scores[i] = max
				if best < 0 || max < best {
					best = max
				}
			}
			cut := best + slack
			w := 1 / float64(len(alts))
			kept := alts[:0:0]
			for i, r := range alts {
				if scores[i] > cut {
					stats.Pruned++
					for _, seg := range r.Segs {
						st.addLoad(seg.Channels, -w)
						st.layers[r.VC].RemoveRoute(seg.Channels)
					}
					continue
				}
				kept = append(kept, r)
			}
			if len(kept) == len(alts) {
				continue
			}
			// The survivors now carry a larger share of the pair's flow.
			w2 := 1 / float64(len(kept))
			for i, r := range kept {
				for _, seg := range r.Segs {
					st.addLoad(seg.Channels, w2-w)
				}
				if r.AltIndex != i {
					cp := *r // copy before renumbering: the original may be shared
					cp.AltIndex = i
					kept[i] = &cp
				}
			}
			st.alts[s][d] = kept
		}
	}
}
