// Package optimize rewrites built routing tables to relieve congestion: an
// iterative rip-up/reroute pass takes a routes.Table plus a per-channel
// criticality vector (measured link utilization from a profiling run, or a
// static estimate), rips up the routes crossing the most critical channels,
// and re-routes each over a congestion-weighted search restricted to the
// scheme's legal path shape — up*/down* paths for UP/DOWN and UD-MIN,
// minimal ITB splits for ITB-SP/ITB-RR, layered minimal paths for VC. A
// move is accepted only when it strictly lowers a quadratic congestion
// objective AND the deadlock proof survives: every accepted route's
// segments are re-admitted into a refcounted channel dependency graph that
// must stay acyclic. The pass converges under a patience bound and is fully
// deterministic — ties resolve by channel ID and the network's port order,
// never by map traversal or floating-point accidents.
//
// The package is pure table surgery: it never simulates and never imports
// the simulator, so the reconfiguration controller (internal/faults) can
// optimize degraded tables and the runner can optimize per-job tables
// without layering cycles. Optimize never mutates its input table; callers
// get a fresh table sharing only untouched Route values.
package optimize

import (
	"fmt"
	"math"
	"sort"

	"itbsim/internal/routes"
	"itbsim/internal/topology"
	"itbsim/internal/updown"
)

// Strategy selects the optimization algorithm.
type Strategy int

const (
	// RipUpReroute is the full optimizer: rip up routes crossing the most
	// critical channels, re-route each over a cost-weighted legal-path
	// search, accept strict improvements that keep the CDG acyclic.
	RipUpReroute Strategy = iota
	// EscapePrune is the OutFlank-style adaptive-escape baseline: for every
	// pair with several alternatives, keep only those minimizing the
	// maximum criticality met along the route, so round-robin selection
	// steers around hotspots. It never computes new paths, which makes it
	// the cheap reference point rip-up/reroute is judged against on tori.
	EscapePrune
)

// String returns the strategy's command-line name.
func (s Strategy) String() string {
	switch s {
	case RipUpReroute:
		return "ripup"
	case EscapePrune:
		return "escape"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy converts a command-line name to a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "ripup", "rip-up", "reroute":
		return RipUpReroute, nil
	case "escape", "outflank", "prune":
		return EscapePrune, nil
	}
	return 0, fmt.Errorf("optimize: unknown strategy %q (want ripup or escape)", s)
}

// Config tunes the optimizer. The zero value of every field selects the
// default, so Config{} is a valid "just optimize" request.
type Config struct {
	// Strategy selects the algorithm; the zero value is RipUpReroute.
	Strategy Strategy
	// MaxMoves caps accepted rip-up moves across the whole pass (0 = 256).
	MaxMoves int
	// Patience is the number of consecutive rounds without one accepted
	// move after which the pass stops (0 = 3).
	Patience int
	// RipUp is the number of candidate routes examined per round, drawn
	// from the most critical channels downwards (0 = 8).
	RipUp int
	// LoadFactor scales criticality into the congestion objective: each
	// channel's load is boosted by 1 + LoadFactor*crit before being
	// squared, so hot channels repel reroutes proportionally (0 = 4).
	LoadFactor float64
	// MaxStretch is the extra hops a rerouted up*/down* path may take over
	// the route it replaces (0 = 2; minimal-path schemes ignore it, their
	// reroutes stay minimal by construction).
	MaxStretch int
	// MaxExtraITBs is the extra in-transit buffers a rerouted ITB split may
	// spend over the route it replaces, trading one ejection for a detour
	// around a hot channel (0 = 1).
	MaxExtraITBs int
	// ITBPenalty prices one in-transit buffer in congestion-cost units so
	// the minimal-split search does not scatter free ejections; 0 derives
	// it as the mean per-channel add cost (one average hop).
	ITBPenalty float64
	// EscapeSlack is EscapePrune's keep band, in the caller's criticality
	// units: an alternative is dropped only when the hottest criticality it
	// meets exceeds the pair's best alternative by more than EscapeSlack,
	// so round-robin spreading is preserved among comparably cool paths
	// (0 = 0.25, a quarter of the normalized scale).
	EscapeSlack float64
	// ProfileLoad is the offered load of the profiling pre-pass the runner
	// simulates to measure criticality before optimizing (0 = the highest
	// load of the sweep). The optimizer itself never reads it.
	ProfileLoad float64
	// ProfileCycles is the measurement window of the profiling pre-pass in
	// cycles (0 = the runner's default). The optimizer itself never reads
	// it.
	ProfileCycles int
}

// DefaultConfig returns the defaults the zero Config resolves to, spelled
// out for callers that want to tweak one knob.
func DefaultConfig() Config {
	return Config{
		Strategy:     RipUpReroute,
		MaxMoves:     256,
		Patience:     3,
		RipUp:        8,
		LoadFactor:   4,
		MaxStretch:   2,
		MaxExtraITBs: 1,
		EscapeSlack:  0.25,
	}
}

// Validate rejects nonsensical knob values with a typed
// *topology.ConfigError naming the offending field. Zero values are always
// valid (they select defaults); only negatives and a non-finite
// LoadFactor/ITBPenalty/EscapeSlack/ProfileLoad are refused. Optimize
// validates internally; the runner also calls this up front so a bad sweep
// spec fails before any table is built.
func (c Config) Validate() error {
	if c.Strategy != RipUpReroute && c.Strategy != EscapePrune {
		return &topology.ConfigError{Field: "Optimize.Strategy", Value: int(c.Strategy),
			Reason: "unknown strategy; want RipUpReroute or EscapePrune"}
	}
	ints := []struct {
		name string
		v    int
	}{
		{"Optimize.MaxMoves", c.MaxMoves},
		{"Optimize.Patience", c.Patience},
		{"Optimize.RipUp", c.RipUp},
		{"Optimize.MaxStretch", c.MaxStretch},
		{"Optimize.MaxExtraITBs", c.MaxExtraITBs},
		{"Optimize.ProfileCycles", c.ProfileCycles},
	}
	for _, f := range ints {
		if f.v < 0 {
			return &topology.ConfigError{Field: f.name, Value: f.v,
				Reason: "must be >= 0 (0 selects the default)"}
		}
	}
	floats := []struct {
		name string
		v    float64
	}{
		{"Optimize.LoadFactor", c.LoadFactor},
		{"Optimize.ITBPenalty", c.ITBPenalty},
		{"Optimize.EscapeSlack", c.EscapeSlack},
		{"Optimize.ProfileLoad", c.ProfileLoad},
	}
	for _, f := range floats {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return &topology.ConfigError{Field: f.name, Value: f.v,
				Reason: "must be finite and >= 0 (0 selects the default)"}
		}
	}
	return nil
}

// withDefaults resolves zero fields to their defaults.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MaxMoves == 0 {
		c.MaxMoves = d.MaxMoves
	}
	if c.Patience == 0 {
		c.Patience = d.Patience
	}
	if c.RipUp == 0 {
		c.RipUp = d.RipUp
	}
	if c.LoadFactor == 0 {
		c.LoadFactor = d.LoadFactor
	}
	if c.MaxStretch == 0 {
		c.MaxStretch = d.MaxStretch
	}
	if c.MaxExtraITBs == 0 {
		c.MaxExtraITBs = d.MaxExtraITBs
	}
	if c.EscapeSlack == 0 {
		c.EscapeSlack = d.EscapeSlack
	}
	return c
}

// Stats summarises one optimization pass.
type Stats struct {
	// Rounds is the number of rip-up rounds run (0 for EscapePrune).
	Rounds int
	// Examined counts candidate routes considered, Accepted the moves that
	// improved the objective and were kept, Rejected the rest.
	Examined, Accepted, Rejected int
	// Pruned counts alternatives dropped by EscapePrune.
	Pruned int
	// InitialCost and FinalCost are the quadratic congestion objective
	// before and after: sum over channels of (load * (1+LoadFactor*crit))^2
	// with load in expected uniform-traffic route-shares.
	InitialCost, FinalCost float64
	// InitialMaxLoad and FinalMaxLoad are the hottest channel's expected
	// load before and after.
	InitialMaxLoad, FinalMaxLoad float64
}

// state is the mutable working set of one pass.
type state struct {
	net    *topology.Network
	a      *updown.Assignment
	scheme routes.Scheme
	alts   [][][]*routes.Route
	load   []float64                 // expected route-share per channel
	crit   []float64                 // the caller's criticality, as given
	boost  []float64                 // 1 + LoadFactor*crit
	boost2 []float64                 // boost^2, the add-cost weight
	layers []*updown.DependencyGraph // per-VC-layer dependency graphs (one layer if NumVCs==0)
	ws     *updown.Workspace         // the pass's route-kernel workspace
	addw   []float64                 // per-channel add cost of the route being proposed
	cfg    Config
}

// Optimize runs one optimization pass over a built table and returns the
// optimized table, never mutating the input. rcfg must be the Config the
// table was built with (the up*/down* root anchors legality), and crit must
// score every directed channel of the table's network in [0, +inf) — higher
// is more critical. The result preserves the scheme's shape: alternative
// counts per pair (EscapePrune may shrink them), VC layer count, and the
// deadlock-freedom proof, re-checked per accepted move.
func Optimize(tab *routes.Table, rcfg routes.Config, crit []float64, cfg Config) (*routes.Table, *Stats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	net := tab.Net
	if len(crit) != net.NumChannels() {
		return nil, nil, &topology.ConfigError{Field: "crit", Value: len(crit),
			Reason: fmt.Sprintf("criticality must score all %d directed channels", net.NumChannels())}
	}
	for i, v := range crit {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, &topology.ConfigError{Field: "crit", Value: fmt.Sprintf("crit[%d]=%v", i, v),
				Reason: "criticality must be finite and non-negative"}
		}
	}
	cfg = cfg.withDefaults()
	a, err := updown.NewAssignment(net, rcfg.Root)
	if err != nil {
		return nil, nil, err
	}

	st := &state{net: net, a: a, ws: updown.NewWorkspace(a), scheme: tab.Scheme, cfg: cfg, crit: crit}
	st.alts = make([][][]*routes.Route, len(tab.Alts))
	for s := range tab.Alts {
		st.alts[s] = make([][]*routes.Route, len(tab.Alts[s]))
		for d := range tab.Alts[s] {
			st.alts[s][d] = append([]*routes.Route(nil), tab.Alts[s][d]...)
		}
	}
	st.boost = make([]float64, len(crit))
	st.boost2 = make([]float64, len(crit))
	for c, v := range crit {
		b := 1 + cfg.LoadFactor*v
		st.boost[c] = b
		st.boost2[c] = b * b
	}
	st.load = make([]float64, net.NumChannels())
	st.addw = make([]float64, net.NumChannels())
	k := tab.NumVCs
	if k == 0 {
		k = 1
	}
	st.layers = make([]*updown.DependencyGraph, k)
	for i := range st.layers {
		st.layers[i] = updown.NewDependencyGraph(net)
	}
	for s := range st.alts {
		for d := range st.alts[s] {
			if s == d || len(st.alts[s][d]) == 0 {
				continue
			}
			w := 1 / float64(len(st.alts[s][d]))
			for _, r := range st.alts[s][d] {
				for _, seg := range r.Segs {
					st.addLoad(seg.Channels, w)
					st.layers[r.VC].AddRoute(seg.Channels)
				}
			}
		}
	}

	stats := &Stats{InitialCost: st.totalCost(), InitialMaxLoad: st.maxLoad()}
	switch cfg.Strategy {
	case RipUpReroute:
		st.ripUpReroute(stats)
	case EscapePrune:
		st.escapePrune(stats)
	default:
		return nil, nil, &topology.ConfigError{Field: "Strategy", Value: int(cfg.Strategy),
			Reason: "unknown optimization strategy"}
	}
	stats.FinalCost = st.totalCost()
	stats.FinalMaxLoad = st.maxLoad()

	out, err := routes.NewTable(net, tab.Scheme, st.alts)
	if err != nil {
		return nil, nil, err
	}
	// NewTable infers the layer count from the routes it sees; preserve the
	// original so the simulator sizes identical VC state either way.
	out.NumVCs = tab.NumVCs
	return out, stats, nil
}

// addLoad shifts the expected load of every channel in a sequence by w.
func (st *state) addLoad(channels []int, w float64) {
	for _, c := range channels {
		st.load[c] += w
	}
}

// addCost is the exact objective delta of adding weight w to the channels
// of a path on the current load: per channel, ((load+w)*boost)^2 -
// (load*boost)^2 = boost^2 * w * (2*load + w). All terms are non-negative,
// which is what lets the proposers run shortest-path searches over it.
func (st *state) addCost(channels []int, w float64) float64 {
	var sum float64
	for _, c := range channels {
		sum += st.chanAddCost(c, w)
	}
	return sum
}

func (st *state) chanAddCost(c int, w float64) float64 {
	return st.boost2[c] * w * (2*st.load[c] + w)
}

// totalCost is the quadratic congestion objective over the current load.
func (st *state) totalCost() float64 {
	var sum float64
	for c, l := range st.load {
		v := l * st.boost[c]
		sum += v * v
	}
	return sum
}

func (st *state) maxLoad() float64 {
	var max float64
	for _, l := range st.load {
		if l > max {
			max = l
		}
	}
	return max
}

// routeRef names one alternative of one pair.
type routeRef struct{ s, d, i int }

// ripUpReroute runs the iterative optimization loop: each round ranks the
// channels by boosted load, collects the routes crossing the hottest ones,
// and tries to re-route each; the pass ends after MaxMoves accepted moves
// or Patience consecutive rounds without one.
func (st *state) ripUpReroute(stats *Stats) {
	stale := 0
	for stats.Accepted < st.cfg.MaxMoves && stale < st.cfg.Patience {
		stats.Rounds++
		accepted := 0
		for _, ref := range st.candidates() {
			stats.Examined++
			if st.tryMove(ref) {
				stats.Accepted++
				accepted++
			} else {
				stats.Rejected++
			}
			if stats.Accepted >= st.cfg.MaxMoves {
				break
			}
		}
		if accepted == 0 {
			stale++
		} else {
			stale = 0
		}
	}
}

// candidates returns up to RipUp distinct routes crossing the most critical
// channels, hottest channel first, routes per channel in (src, dst, alt)
// order. Everything is index-driven, so the pick is deterministic.
func (st *state) candidates() []routeRef {
	type scored struct {
		score float64
		c     int
	}
	order := make([]scored, 0, len(st.load))
	for c, l := range st.load {
		if l > 0 {
			order = append(order, scored{score: l * st.boost[c], c: c})
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].score != order[j].score {
			return order[i].score > order[j].score
		}
		return order[i].c < order[j].c
	})

	byChan := make([][]routeRef, len(st.load))
	for s := range st.alts {
		for d := range st.alts[s] {
			if s == d {
				continue
			}
			for i, r := range st.alts[s][d] {
				if r.Hops == 0 {
					continue
				}
				ref := routeRef{s, d, i}
				for _, seg := range r.Segs {
					for _, c := range seg.Channels {
						byChan[c] = append(byChan[c], ref)
					}
				}
			}
		}
	}

	seen := make(map[routeRef]bool, st.cfg.RipUp)
	out := make([]routeRef, 0, st.cfg.RipUp)
	for _, sc := range order {
		for _, ref := range byChan[sc.c] {
			if seen[ref] {
				continue
			}
			seen[ref] = true
			out = append(out, ref)
			if len(out) >= st.cfg.RipUp {
				return out
			}
		}
	}
	return out
}

// tryMove rips up one route, asks the scheme's proposer for a replacement,
// and accepts it only when the replacement strictly lowers the objective,
// respects the scheme's latency guards, and its segments are admitted by
// the target layer's dependency graph. On any failure the route (and every
// piece of bookkeeping) is restored exactly.
func (st *state) tryMove(ref routeRef) bool {
	old := st.alts[ref.s][ref.d][ref.i]
	w := 1 / float64(len(st.alts[ref.s][ref.d]))

	// Rip up: subtract the old route from the load and the deadlock proof.
	for _, seg := range old.Segs {
		st.addLoad(seg.Channels, -w)
		st.layers[old.VC].RemoveRoute(seg.Channels)
	}
	restore := func() {
		for _, seg := range old.Segs {
			st.addLoad(seg.Channels, w)
			st.layers[old.VC].AddRoute(seg.Channels)
		}
	}

	nr, ok := st.propose(ref, old, w)
	if !ok {
		restore()
		return false
	}
	oldCost := st.routeAddCost(old, w)
	newCost := st.routeAddCost(nr, w)
	if !(newCost < oldCost) {
		restore()
		return false
	}
	if !st.admit(st.layers[nr.VC], nr) {
		restore()
		return false
	}
	for _, seg := range nr.Segs {
		st.addLoad(seg.Channels, w)
	}
	st.alts[ref.s][ref.d][ref.i] = nr
	return true
}

// routeAddCost is addCost over every segment of a route.
func (st *state) routeAddCost(r *routes.Route, w float64) float64 {
	var sum float64
	for _, seg := range r.Segs {
		sum += st.addCost(seg.Channels, w)
	}
	return sum
}

// admit adds every segment of a route to a layer CDG, keeping it acyclic;
// on failure the segments already added are removed again.
func (st *state) admit(g *updown.DependencyGraph, r *routes.Route) bool {
	for i, seg := range r.Segs {
		if !g.TryAddRoute(seg.Channels) {
			for j := 0; j < i; j++ {
				g.RemoveRoute(r.Segs[j].Channels)
			}
			return false
		}
	}
	return true
}
