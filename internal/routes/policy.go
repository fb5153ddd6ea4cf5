package routes

import (
	"encoding"
	"fmt"
	"math/bits"
	"slices"

	"itbsim/internal/wire"
)

// Selector chooses among the alternative minimal routes of a
// source-destination pair at the source NIC. The paper's ITB-RR policy is
// the built-in round-robin; Selector generalises it and enables the "route
// selection algorithms that implement some adaptivity at the source host"
// the paper names as future work (§5).
//
// A simulation owns its selector from pick to feedback: it runs a Clone of
// the one installed on its table, routes every message through Select,
// and reports the latency of every measured delivery to Observe. The
// selector's mutable state travels in simulator checkpoints through
// MarshalBinary, and UnmarshalBinary restores it into a Clone of the
// selector that wrote it.
type Selector interface {
	// Select picks one of alts (len >= 1) for a message from srcHost to
	// the destination switch dstSwitch.
	Select(srcHost, dstSwitch int, alts []*Route) *Route
	// Observe feeds back the measured latency of a delivered message that
	// used the given route. Non-adaptive selectors ignore it.
	Observe(srcHost int, r *Route, latencyNs float64)
	// Clone returns an independent selector with fresh state.
	Clone() Selector
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// SetSelector installs a path-selection policy on the table, overriding the
// scheme's built-in behaviour (UP/DOWN and ITB-SP have one route per pair,
// so a selector only matters for tables built with ITBRR). It returns the
// table for chaining.
func (t *Table) SetSelector(sel Selector) *Table {
	t.sel = sel
	return t
}

// Selector returns the installed path-selection policy, or nil.
func (t *Table) Selector() Selector { return t.sel }

// Observe forwards a delivery measurement to the installed selector, if
// any. The simulator calls it for every measured delivery.
func (t *Table) Observe(srcHost int, r *Route, latencyNs float64) {
	if t.sel != nil {
		t.sel.Observe(srcHost, r, latencyNs)
	}
}

// randomSelector picks uniformly among alternatives with a splitmix64
// generator, whose whole state is one word.
type randomSelector struct {
	seed, state uint64
}

// NewRandomSelector returns a selector that picks a uniformly random
// alternative per message (deterministic for a seed).
func NewRandomSelector(seed int64) Selector {
	return &randomSelector{seed: uint64(seed), state: uint64(seed)}
}

func (s *randomSelector) Select(_, _ int, alts []*Route) *Route {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	i, _ := bits.Mul64(z^(z>>31), uint64(len(alts)))
	return alts[i]
}
func (s *randomSelector) Observe(int, *Route, float64) {}
func (s *randomSelector) Clone() Selector              { return NewRandomSelector(int64(s.seed)) }

func (s *randomSelector) walk(c *wire.Codec) { c.U64(&s.state) }

// MarshalBinary serializes the generator state.
func (s *randomSelector) MarshalBinary() ([]byte, error) { return wire.Marshal(s.walk) }

// UnmarshalBinary restores a generator state written by MarshalBinary.
func (s *randomSelector) UnmarshalBinary(data []byte) error {
	return wire.Unmarshal(data, s.walk)
}

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

// MarshalBinary returns no bytes: the policy has no state.
func (fewestITBSelector) MarshalBinary() ([]byte, error) { return nil, nil }

// UnmarshalBinary accepts only the empty state MarshalBinary writes.
func (fewestITBSelector) UnmarshalBinary(data []byte) error {
	return wire.Unmarshal(data, func(*wire.Codec) {})
}

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

// walk is the adaptive selector's encoding: its configuration, then every
// (source host, destination switch) entry in sorted key order with its
// per-alternative estimates and selection counts.
func (s *adaptiveSelector) walk(c *wire.Codec) {
	c.F64(&s.cfg.Alpha)
	c.Bool(&s.cfg.Explore)
	var keys []int64
	if c.Reading() {
		s.state = make(map[int64]*adaptState)
	}
	//lint:ignore detrange keys are collected then sorted below before any use
	for k := range s.state {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	wire.Slice(c, &keys, func(c *wire.Codec, k *int64) {
		wire.Int(c, k)
		st := s.state[*k]
		if st == nil {
			st = &adaptState{}
			s.state[*k] = st
		}
		wire.Slice(c, &st.ewma, (*wire.Codec).F64)
		wire.Slice(c, &st.tries, (*wire.Codec).U32)
		if len(st.ewma) != len(st.tries) {
			c.Fail(fmt.Errorf("entry %d has %d estimates for %d counts", *k, len(st.ewma), len(st.tries)))
		}
	})
}

// MarshalBinary serializes the configuration and the learned estimates.
func (s *adaptiveSelector) MarshalBinary() ([]byte, error) { return wire.Marshal(s.walk) }

// UnmarshalBinary restores a state written by MarshalBinary, replacing the
// receiver's configuration and estimates.
func (s *adaptiveSelector) UnmarshalBinary(data []byte) error {
	return wire.Unmarshal(data, s.walk)
}
