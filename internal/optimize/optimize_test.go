package optimize

import (
	"reflect"
	"testing"

	"itbsim/internal/routes"
	"itbsim/internal/topology"
	"itbsim/internal/updown"
)

// testNets builds the three fabrics the acceptance tests cross: a 4x4
// torus (root congestion, many equal-length alternatives), the same torus
// with express channels (legal-minimal fraction near 1), and CPLANT (the
// paper's irregular production network).
func testNets(t *testing.T) []*topology.Network {
	t.Helper()
	torus, err := topology.NewTorus(4, 4, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	express, err := topology.NewExpressTorus(4, 4, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	cplant, err := topology.NewCplant(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	return []*topology.Network{torus, express, cplant}
}

// checkTable asserts the invariants every optimized table must keep: it
// validates structurally, every switch pair still has at least one route,
// every per-layer channel dependency graph is acyclic (the deadlock proof),
// and for the non-VC schemes every segment is up*/down*-legal.
func checkTable(t *testing.T, tab *routes.Table, rcfg routes.Config) {
	t.Helper()
	if err := tab.Validate(); err != nil {
		t.Fatalf("%v: optimized table invalid: %v", tab.Scheme, err)
	}
	a, err := updown.NewAssignment(tab.Net, rcfg.Root)
	if err != nil {
		t.Fatal(err)
	}
	k := tab.NumVCs
	if k == 0 {
		k = 1
	}
	layers := make([]*updown.DependencyGraph, k)
	for i := range layers {
		layers[i] = updown.NewDependencyGraph(tab.Net)
	}
	for s := range tab.Alts {
		for d := range tab.Alts[s] {
			if len(tab.Alts[s][d]) == 0 {
				t.Fatalf("%v: pair %d->%d lost all routes", tab.Scheme, s, d)
			}
			for _, r := range tab.Alts[s][d] {
				for _, seg := range r.Segs {
					layers[r.VC].AddRoute(seg.Channels)
					if tab.Scheme != routes.VC && !a.LegalChannelSeq(seg.Channels) {
						t.Fatalf("%v: %d->%d has an illegal segment", tab.Scheme, s, d)
					}
				}
			}
		}
	}
	for i, g := range layers {
		if !g.Acyclic() {
			t.Fatalf("%v: layer %d dependency graph has a cycle after optimization", tab.Scheme, i)
		}
	}
}

// TestOptimizePreservesInvariants crosses every scheme with the three
// fabrics: the optimized table must keep the deadlock proof and full
// connectivity, never raise the congestion objective, and (for the minimal
// schemes) never stretch a route beyond the raw distance.
func TestOptimizePreservesInvariants(t *testing.T) {
	schemes := []routes.Scheme{routes.UpDown, routes.ITBSP, routes.ITBRR, routes.UpDownMin, routes.VC}
	for _, net := range testNets(t) {
		raw := net.AllDistances()
		for _, scheme := range schemes {
			rcfg := routes.DefaultConfig(scheme)
			tab, err := routes.Build(net, rcfg)
			if err != nil {
				t.Fatalf("%s/%v: %v", net.Name, scheme, err)
			}
			crit := EstimateCriticality(tab)
			opt, stats, err := Optimize(tab, rcfg, crit, Config{})
			if err != nil {
				t.Fatalf("%s/%v: Optimize: %v", net.Name, scheme, err)
			}
			checkTable(t, opt, rcfg)
			if stats.FinalCost > stats.InitialCost {
				t.Errorf("%s/%v: objective rose %.4f -> %.4f", net.Name, scheme, stats.InitialCost, stats.FinalCost)
			}
			if scheme == routes.ITBSP || scheme == routes.ITBRR {
				for s := range opt.Alts {
					for d := range opt.Alts[s] {
						for _, r := range opt.Alts[s][d] {
							if s != d && r.Hops != raw[s][d] {
								t.Fatalf("%s/%v: %d->%d rerouted to %d hops, raw distance %d",
									net.Name, scheme, s, d, r.Hops, raw[s][d])
							}
						}
					}
				}
			}
		}
	}
}

// TestOptimizeImproves pins that the optimizer actually moves: on the 4x4
// torus under UP/DOWN the static estimate concentrates load near the root,
// and rip-up/reroute must strictly lower both the objective and the
// hottest channel's expected load.
func TestOptimizeImproves(t *testing.T) {
	net, err := topology.NewTorus(4, 4, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := routes.DefaultConfig(routes.UpDown)
	tab, err := routes.Build(net, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := Optimize(tab, rcfg, EstimateCriticality(tab), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Accepted == 0 {
		t.Fatal("no move accepted on a root-congested torus table")
	}
	if !(stats.FinalCost < stats.InitialCost) {
		t.Fatalf("objective did not improve: %.4f -> %.4f", stats.InitialCost, stats.FinalCost)
	}
	if !(stats.FinalMaxLoad < stats.InitialMaxLoad) {
		t.Fatalf("hottest channel did not cool: %.4f -> %.4f", stats.InitialMaxLoad, stats.FinalMaxLoad)
	}
}

// routesEqual compares two tables route by route.
func routesEqual(a, b *routes.Table) bool {
	if len(a.Alts) != len(b.Alts) || a.NumVCs != b.NumVCs {
		return false
	}
	for s := range a.Alts {
		for d := range a.Alts[s] {
			ra, rb := a.Alts[s][d], b.Alts[s][d]
			if len(ra) != len(rb) {
				return false
			}
			for i := range ra {
				if !reflect.DeepEqual(ra[i], rb[i]) {
					return false
				}
			}
		}
	}
	return true
}

// TestOptimizeDeterministic runs the same pass twice and requires
// identical tables and identical stats — the optimizer is part of the
// byte-identical results contract.
func TestOptimizeDeterministic(t *testing.T) {
	for _, scheme := range []routes.Scheme{routes.UpDown, routes.ITBRR, routes.VC} {
		rcfg := routes.DefaultConfig(scheme)
		net, err := topology.NewTorus(4, 4, 2, 16)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := routes.Build(net, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		crit := EstimateCriticality(tab)
		o1, s1, err := Optimize(tab, rcfg, crit, Config{})
		if err != nil {
			t.Fatal(err)
		}
		o2, s2, err := Optimize(tab, rcfg, crit, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if !routesEqual(o1, o2) {
			t.Fatalf("%v: two identical passes produced different tables", scheme)
		}
		if *s1 != *s2 {
			t.Fatalf("%v: two identical passes produced different stats: %+v vs %+v", scheme, s1, s2)
		}
	}
}

// TestOptimizeDoesNotMutateInput pins that the input table's alternatives
// are untouched: callers cache built tables and must be able to optimize a
// cached table per job without poisoning the cache.
func TestOptimizeDoesNotMutateInput(t *testing.T) {
	net, err := topology.NewTorus(4, 4, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := routes.DefaultConfig(routes.ITBRR)
	tab, err := routes.Build(net, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	before := make([][][]*routes.Route, len(tab.Alts))
	snap := make(map[*routes.Route]routes.Route)
	for s := range tab.Alts {
		before[s] = make([][]*routes.Route, len(tab.Alts[s]))
		for d := range tab.Alts[s] {
			before[s][d] = append([]*routes.Route(nil), tab.Alts[s][d]...)
			for _, r := range tab.Alts[s][d] {
				snap[r] = *r
			}
		}
	}
	if _, _, err := Optimize(tab, rcfg, EstimateCriticality(tab), Config{}); err != nil {
		t.Fatal(err)
	}
	for s := range tab.Alts {
		for d := range tab.Alts[s] {
			if !reflect.DeepEqual(before[s][d], tab.Alts[s][d]) {
				t.Fatalf("pair %d->%d alternatives changed in the input table", s, d)
			}
			for _, r := range tab.Alts[s][d] {
				if want := snap[r]; !reflect.DeepEqual(want, *r) {
					t.Fatalf("route %d->%d mutated in place", s, d)
				}
			}
		}
	}
}

// TestEscapePrune drives the OutFlank-style baseline on the torus under
// ITB-RR with a hotspot criticality (every channel into or out of one
// switch is hot): alternatives marching through the hotspot must be pruned
// when a cool alternative exists, at least one alternative survives per
// pair, and the table invariants hold. Routes of the hot switch itself
// necessarily touch it, so its own pairs keep their full sets.
func TestEscapePrune(t *testing.T) {
	net, err := topology.NewTorus(4, 4, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := routes.DefaultConfig(routes.ITBRR)
	tab, err := routes.Build(net, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	const hot = 5
	crit := make([]float64, net.NumChannels())
	for c := range crit {
		from, to := net.ChannelEnds(c)
		if from == hot || to == hot {
			crit[c] = 1
		} else {
			crit[c] = 0.05
		}
	}
	opt, stats, err := Optimize(tab, rcfg, crit, Config{Strategy: EscapePrune})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pruned == 0 {
		t.Fatal("EscapePrune pruned nothing around a hotspot switch")
	}
	checkTable(t, opt, rcfg)
	if stats.FinalCost > stats.InitialCost {
		t.Errorf("pruning raised the objective %.4f -> %.4f", stats.InitialCost, stats.FinalCost)
	}
	// A pair neither of whose endpoints is the hot switch, with at least
	// one alternative avoiding it, must keep only hotspot-free routes.
	for s := range opt.Alts {
		for d := range opt.Alts[s] {
			if s == d || s == hot || d == hot {
				continue
			}
			avoidable := false
			for _, r := range tab.Alts[s][d] {
				if !touches(r, hot, net) {
					avoidable = true
					break
				}
			}
			if !avoidable {
				continue
			}
			for _, r := range opt.Alts[s][d] {
				if touches(r, hot, net) {
					t.Fatalf("pair %d->%d kept a route through the hotspot despite a cool alternative", s, d)
				}
			}
		}
	}
}

// touches reports whether a route crosses any channel of the given switch.
func touches(r *routes.Route, sw int, net *topology.Network) bool {
	for _, seg := range r.Segs {
		for _, c := range seg.Channels {
			from, to := net.ChannelEnds(c)
			if from == sw || to == sw {
				return true
			}
		}
	}
	return false
}

// TestOptimizeRejectsBadInput pins the typed validation errors.
func TestOptimizeRejectsBadInput(t *testing.T) {
	net, err := topology.NewTorus(4, 4, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := routes.DefaultConfig(routes.UpDown)
	tab, err := routes.Build(net, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Optimize(tab, rcfg, make([]float64, 3), Config{}); err == nil {
		t.Fatal("short criticality vector accepted")
	} else if _, ok := err.(*topology.ConfigError); !ok {
		t.Fatalf("short criticality vector: error %T, want *topology.ConfigError", err)
	}
	bad := make([]float64, net.NumChannels())
	bad[0] = -1
	if _, _, err := Optimize(tab, rcfg, bad, Config{}); err == nil {
		t.Fatal("negative criticality accepted")
	} else if _, ok := err.(*topology.ConfigError); !ok {
		t.Fatalf("negative criticality: error %T, want *topology.ConfigError", err)
	}
}

// TestRefCDG exercises the refcounted dependency graph the optimizer keeps
// per layer: shared edges survive one route's removal, cycles are refused
// with exact rollback, and removal of the last reference reopens the edge.
// The channel sequences are abstract; only the IDs matter.
func TestRefCDG(t *testing.T) {
	net, err := topology.NewTorus(2, 2, 1, 16) // 4 links, channels 0..7
	if err != nil {
		t.Fatal(err)
	}
	g := updown.NewDependencyGraph(net)
	if !g.TryAddRoute([]int{0, 1, 2}) {
		t.Fatal("acyclic chain refused")
	}
	if !g.TryAddRoute([]int{0, 1, 3}) {
		t.Fatal("second route sharing edge 0->1 refused")
	}
	if g.TryAddRoute([]int{2, 0}) {
		t.Fatal("cycle 0->1->2->0 admitted")
	}
	if !g.Acyclic() {
		t.Fatal("graph not acyclic after rejected admission")
	}
	g.RemoveRoute([]int{0, 1, 2})
	// Edge 0->1 must survive (still referenced by the second route), edge
	// 1->2 must be gone, so 2->0 no longer closes a cycle... it still
	// would via 0->1->3? No: 3 has no outgoing edges, and 1->2 is gone, so
	// 2 is unreachable from 0 and 2->0 is safe.
	if !g.TryAddRoute([]int{2, 0}) {
		t.Fatal("edge 2->0 refused after the blocking route was removed")
	}
	if !g.TryAddRoute([]int{0, 1}) {
		t.Fatal("shared edge lost its surviving reference")
	}
	if !g.Acyclic() {
		t.Fatal("final graph not acyclic")
	}
}
