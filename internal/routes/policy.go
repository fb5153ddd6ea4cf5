package routes

import (
	"math/rand"
	"sync"
)

// Selector chooses among the alternative minimal routes of a
// source-destination pair at the source NIC. The paper's ITB-RR policy is
// the built-in round-robin; Selector generalises it and enables the "route
// selection algorithms that implement some adaptivity at the source host"
// the paper names as future work (§5).
//
// Selectors are driven by one simulation at a time (the simulator is
// single-threaded); Clone produces an independent instance with fresh state
// for concurrent runs.
type Selector interface {
	// Select picks one of alts (len >= 1) for a message from srcHost to
	// the destination switch dstSwitch.
	Select(srcHost, dstSwitch int, alts []*Route) *Route
	// Observe feeds back the measured latency of a delivered message that
	// used the given route. Non-adaptive selectors ignore it.
	Observe(srcHost int, r *Route, latencyNs float64)
	// Clone returns an independent selector with fresh state.
	Clone() Selector
}

// SetSelector installs a path-selection policy on the table, overriding the
// scheme's built-in behaviour (UP/DOWN and ITB-SP have one route per pair,
// so a selector only matters for tables built with ITBRR). It returns the
// table for chaining.
func (t *Table) SetSelector(sel Selector) *Table {
	t.sel = sel
	return t
}

// HasSelector reports whether a path-selection policy override is
// installed. Selectors carry mutable state (RNGs, EWMA maps) the simulator
// cannot checkpoint, so Snapshot refuses tables that have one.
func (t *Table) HasSelector() bool { return t.sel != nil }

// Observe forwards a delivery measurement to the installed selector, if
// any. Wire it to the simulator's Notify callback for adaptive policies.
func (t *Table) Observe(srcHost int, r *Route, latencyNs float64) {
	if t.sel != nil {
		t.sel.Observe(srcHost, r, latencyNs)
	}
}

// randomSelector picks uniformly among alternatives.
type randomSelector struct {
	mu   sync.Mutex
	rng  *rand.Rand
	seed int64
}

// NewRandomSelector returns a selector that picks a uniformly random
// alternative per message (deterministic for a seed).
func NewRandomSelector(seed int64) Selector {
	return &randomSelector{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

func (s *randomSelector) Select(_, _ int, alts []*Route) *Route {
	s.mu.Lock()
	defer s.mu.Unlock()
	return alts[s.rng.Intn(len(alts))]
}
func (s *randomSelector) Observe(int, *Route, float64) {}
func (s *randomSelector) Clone() Selector              { return NewRandomSelector(s.seed) }

// fewestITBSelector always picks the alternative with the fewest in-transit
// buffers (first on ties): the latency-conscious static policy.
type fewestITBSelector struct{}

// NewFewestITBSelector returns the static fewest-ITBs-first policy.
func NewFewestITBSelector() Selector { return fewestITBSelector{} }

func (fewestITBSelector) Select(_, _ int, alts []*Route) *Route {
	best := alts[0]
	for _, r := range alts[1:] {
		if r.NumITBs() < best.NumITBs() {
			best = r
		}
	}
	return best
}
func (fewestITBSelector) Observe(int, *Route, float64) {}
func (fewestITBSelector) Clone() Selector              { return fewestITBSelector{} }

// AdaptiveConfig tunes the source-adaptive selector.
type AdaptiveConfig struct {
	// Alpha is the EWMA smoothing factor applied to observed latencies
	// (0 < Alpha <= 1; higher reacts faster).
	Alpha float64
	// Explore makes every alternative be tried once before the policy
	// starts exploiting (unobserved alternatives win ties).
	Explore bool
}

// DefaultAdaptiveConfig reacts quickly and explores each alternative once.
func DefaultAdaptiveConfig() AdaptiveConfig { return AdaptiveConfig{Alpha: 0.25, Explore: true} }

// adaptiveSelector keeps an EWMA of the delivered latency per (source
// host, destination switch, alternative) and routes each message over the
// alternative with the lowest estimate — congestion feedback at the source
// host, with no global knowledge, exactly the kind of source-level
// adaptivity the paper proposes investigating.
type adaptiveSelector struct {
	cfg AdaptiveConfig
	// state[(srcHost, dstSwitch)] holds the per-alternative EWMA (-1 =
	// never observed) and the number of times each alternative was
	// selected (so exploration rotates before any feedback arrives).
	state map[int64]*adaptState
}

type adaptState struct {
	ewma  []float64
	tries []uint32
}

// NewAdaptiveSelector returns the EWMA-based source-adaptive policy.
func NewAdaptiveSelector(cfg AdaptiveConfig) Selector {
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = 0.25
	}
	return &adaptiveSelector{cfg: cfg, state: make(map[int64]*adaptState)}
}

func adaptKey(srcHost, dstSwitch int) int64 { return int64(srcHost)<<20 | int64(dstSwitch) }

func (s *adaptiveSelector) stateFor(srcHost, dstSwitch, n int) *adaptState {
	k := adaptKey(srcHost, dstSwitch)
	st := s.state[k]
	if st == nil {
		st = &adaptState{ewma: make([]float64, n), tries: make([]uint32, n)}
		for i := range st.ewma {
			st.ewma[i] = -1
		}
		s.state[k] = st
	}
	for len(st.ewma) < n {
		st.ewma = append(st.ewma, -1)
		st.tries = append(st.tries, 0)
	}
	return st
}

func (s *adaptiveSelector) Select(srcHost, dstSwitch int, alts []*Route) *Route {
	st := s.stateFor(srcHost, dstSwitch, len(alts))
	best := -1
	if s.cfg.Explore {
		// Try the least-tried unobserved alternative first so the policy
		// samples every route even before the first feedback arrives.
		for i := 0; i < len(alts); i++ {
			if st.ewma[i] < 0 && (best < 0 || st.tries[i] < st.tries[best]) {
				best = i
			}
		}
	}
	if best < 0 {
		// Exploit: lowest latency estimate, unobserved treated as best
		// possible (0) when exploration is off.
		for i := 0; i < len(alts); i++ {
			score := st.ewma[i]
			if score < 0 {
				score = 0
			}
			if best < 0 || score < bestScore(st, best) {
				best = i
			}
		}
	}
	st.tries[best]++
	return alts[best]
}

func bestScore(st *adaptState, i int) float64 {
	if st.ewma[i] < 0 {
		return 0
	}
	return st.ewma[i]
}

func (s *adaptiveSelector) Observe(srcHost int, r *Route, latencyNs float64) {
	st := s.stateFor(srcHost, r.DstSwitch, r.AltIndex+1)
	if st.ewma[r.AltIndex] < 0 {
		st.ewma[r.AltIndex] = latencyNs
	} else {
		st.ewma[r.AltIndex] += s.cfg.Alpha * (latencyNs - st.ewma[r.AltIndex])
	}
}

func (s *adaptiveSelector) Clone() Selector { return NewAdaptiveSelector(s.cfg) }
