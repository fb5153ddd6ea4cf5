// Package routes builds the per-NIC source routing tables the simulator
// consumes. A route is an ordered list of directed channels, optionally
// broken into segments at in-transit hosts (the ITB mark of §3). Tables
// support the three schemes the paper evaluates: the original Myrinet
// up*/down* routing (UP/DOWN), and in-transit-buffer minimal routing with
// single-path (ITB-SP) or round-robin (ITB-RR) path selection.
//
// Build constructs a Table for a network and scheme; construction is the
// expensive step (all-pairs alternatives), so harnesses memoize it in a
// runner.TableCache. A Table is not a value type: round-robin and adaptive
// policies keep per-pair selection state that advances on every Route
// call, so each simulation works on its own Clone of the table it is
// handed.
package routes

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"itbsim/internal/itbroute"
	"itbsim/internal/topology"
	"itbsim/internal/updown"
)

// Scheme selects the routing algorithm.
type Scheme int

const (
	// UpDown is the original Myrinet routing: one balanced up*/down* path
	// per pair, as computed by the simple_routes emulation.
	UpDown Scheme = iota
	// ITBSP is minimal routing with in-transit buffers, single path: the
	// same minimal path (the one needing fewest ITBs) is always used.
	ITBSP
	// ITBRR is minimal routing with in-transit buffers, selecting among
	// all the alternative minimal paths in a round-robin fashion.
	ITBRR
	// UpDownMin uses all the shortest legal up*/down* paths for each pair
	// (up to the table limit), round-robin, with no in-transit buffers.
	// §4.5 reports that simple_routes beats this scheme; the
	// corresponding ablation benchmark verifies that claim.
	UpDownMin
	// VC is minimal routing made deadlock-free by virtual-channel layers
	// instead of in-transit buffers: every route is assigned one virtual
	// channel (layer) for its whole journey, LASH-style. Layer 0 is the
	// escape layer, reserved for up*/down*-legal paths (jointly acyclic by
	// construction); higher layers admit raw-minimal paths greedily while
	// each layer's channel dependency graph stays acyclic; pairs with no
	// admitted minimal path fall back to their balanced up*/down* path on
	// layer 0. Selection over alternatives is round-robin, like ITB-RR.
	VC
)

// String returns the scheme's display name as the paper spells it.
func (s Scheme) String() string {
	switch s {
	case UpDown:
		return "UP/DOWN"
	case ITBSP:
		return "ITB-SP"
	case ITBRR:
		return "ITB-RR"
	case UpDownMin:
		return "UD-MIN"
	case VC:
		return "VC"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// ParseScheme converts a command-line name to a Scheme.
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "updown", "ud", "up/down", "UP/DOWN":
		return UpDown, nil
	case "itb-sp", "itbsp", "sp", "ITB-SP":
		return ITBSP, nil
	case "itb-rr", "itbrr", "rr", "ITB-RR":
		return ITBRR, nil
	case "ud-min", "udmin", "UD-MIN":
		return UpDownMin, nil
	case "vc", "min-vc", "VC":
		return VC, nil
	}
	return 0, fmt.Errorf("routes: unknown scheme %q (want updown, itb-sp, itb-rr, ud-min, or vc)", s)
}

// Seg is one up*/down*-legal piece of a route. The packet traverses
// Channels in order; if ITBHost >= 0 it is then ejected into that host's
// interface card and re-injected to continue with the next segment. The
// final segment has ITBHost == -1: the packet is delivered to the actual
// destination host.
type Seg struct {
	Channels []int
	ITBHost  int
}

// Route is a switch-to-switch source route shared by every host pair on the
// same pair of switches.
type Route struct {
	SrcSwitch, DstSwitch int
	Segs                 []Seg
	Hops                 int // total switch-to-switch links traversed
	AltIndex             int // position among the pair's alternatives
	// VC is the virtual-channel layer the packet travels on for its whole
	// journey (VC-scheme tables only; 0 elsewhere). Constant-VC-per-packet
	// is what lets the layered assignment coexist with source routing: no
	// switch ever needs to re-route or re-lane a packet mid-network.
	VC int
}

// NumITBs returns the number of in-transit hosts the route visits.
func (r *Route) NumITBs() int { return len(r.Segs) - 1 }

// Config controls table construction.
type Config struct {
	Scheme Scheme
	// Root is the up*/down* spanning tree root switch.
	Root int
	// MaxAlternatives caps the alternative minimal routes kept per pair
	// (§4.5 imposes 10 to bound table look-up delay).
	MaxAlternatives int
	// Balanced tunes the simple_routes emulation used for UP/DOWN.
	Balanced updown.BalancedConfig
	// VCs is the number of virtual-channel layers for the VC scheme
	// (ignored by the other schemes; 0 means the default of 2). Layer 0 is
	// always the up*/down* escape layer.
	VCs int
}

// DefaultConfig returns the paper's configuration for the given scheme.
// For the VC scheme that includes two virtual-channel layers (one escape
// layer plus one minimal layer), the smallest configuration that routes
// minimally on most pairs.
func DefaultConfig(s Scheme) Config {
	cfg := Config{
		Scheme:          s,
		Root:            0,
		MaxAlternatives: 10,
		Balanced:        updown.DefaultBalancedConfig(),
	}
	if s == VC {
		cfg.VCs = 2
	}
	return cfg
}

// Table holds every route alternative for every ordered switch pair, plus
// the per-source-host round-robin counters for ITB-RR.
type Table struct {
	Net    *topology.Network
	Scheme Scheme
	// Alts[src][dst] lists the route alternatives for the switch pair.
	// UP/DOWN and ITB-SP keep exactly one.
	Alts [][][]*Route
	// NumVCs is the number of virtual-channel layers the routes span (0
	// for non-VC tables). The simulator sizes its per-port VC state from
	// it; every Route.VC is in [0, NumVCs).
	NumVCs int

	rr  [][]uint32 // rr[srcHost][dstSwitch]: round-robin cursor
	sel Selector   // optional policy override, see SetSelector
}

// NewTable assembles a table from externally computed route alternatives,
// indexed [srcSwitch][dstSwitch] over net's switches. It is the constructor
// for tables whose routes were not built by Build on net itself — most
// importantly degraded-mode tables recomputed on a rediscovered topology and
// translated back to the original network's channel IDs (internal/faults).
// Pairs may be left nil or empty when no route survives; Lookup reports
// those as unreachable. Round-robin selection state is allocated exactly as
// Build would for the scheme.
func NewTable(net *topology.Network, scheme Scheme, alts [][][]*Route) (*Table, error) {
	if len(alts) != net.Switches {
		return nil, fmt.Errorf("routes: NewTable: %d switch rows for a %d-switch network", len(alts), net.Switches)
	}
	for s := range alts {
		if len(alts[s]) != net.Switches {
			return nil, fmt.Errorf("routes: NewTable: row %d has %d columns, want %d", s, len(alts[s]), net.Switches)
		}
	}
	t := &Table{Net: net, Scheme: scheme, Alts: alts}
	if scheme == VC {
		t.NumVCs = 1
		for s := range alts {
			for d := range alts[s] {
				for _, r := range alts[s][d] {
					if r.VC >= t.NumVCs {
						t.NumVCs = r.VC + 1
					}
				}
			}
		}
	}
	if scheme == ITBRR || scheme == UpDownMin || scheme == VC {
		t.rr = make([][]uint32, net.NumHosts())
		for h := range t.rr {
			t.rr[h] = make([]uint32, net.Switches)
		}
	}
	return t, nil
}

// Build computes the routing table for a network under the given config.
func Build(net *topology.Network, cfg Config) (*Table, error) {
	if cfg.MaxAlternatives <= 0 {
		cfg.MaxAlternatives = 10
	}
	a, err := updown.NewAssignment(net, cfg.Root)
	if err != nil {
		return nil, err
	}
	t := &Table{Net: net, Scheme: cfg.Scheme}
	n := net.Switches
	t.Alts = make([][][]*Route, n)
	for s := range t.Alts {
		t.Alts[s] = make([][]*Route, n)
	}

	switch cfg.Scheme {
	case UpDown:
		paths := a.BalancedRoutes(cfg.Balanced)
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				r, err := routeFromSplit(net, itbroute.Split{Path: paths[s][d]})
				if err != nil {
					return nil, err
				}
				t.Alts[s][d] = []*Route{r}
			}
		}
	case UpDownMin:
		w := updown.NewWorkspace(a)
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				paths := w.ShortestLegalPaths(s, d, cfg.MaxAlternatives)
				if len(paths) == 0 {
					return nil, fmt.Errorf("routes: no legal path %d -> %d", s, d)
				}
				alts := make([]*Route, 0, len(paths))
				for i, p := range paths {
					r, err := routeFromSplit(net, itbroute.Split{Path: p})
					if err != nil {
						return nil, err
					}
					r.AltIndex = i
					alts = append(alts, r)
				}
				t.Alts[s][d] = alts
			}
		}
	case ITBSP, ITBRR:
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					r, err := routeFromSplit(net, itbroute.Split{Path: []int{s}})
					if err != nil {
						return nil, err
					}
					t.Alts[s][d] = []*Route{r}
					continue
				}
				splits, err := itbroute.MinimalSplits(a, s, d, cfg.MaxAlternatives)
				if err != nil {
					return nil, err
				}
				if cfg.Scheme == ITBSP {
					splits = []itbroute.Split{itbroute.BestSplit(splits)}
				}
				alts := make([]*Route, 0, len(splits))
				for i, sp := range splits {
					r, err := routeFromSplitWithHosts(net, sp, s*31+d*17+i)
					if err != nil {
						return nil, err
					}
					r.AltIndex = i
					alts = append(alts, r)
				}
				t.Alts[s][d] = alts
			}
		}
	case VC:
		if err := buildVC(net, a, cfg, t); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("routes: unknown scheme %v", cfg.Scheme)
	}

	if cfg.Scheme == ITBRR || cfg.Scheme == UpDownMin || cfg.Scheme == VC {
		t.rr = make([][]uint32, net.NumHosts())
		for h := range t.rr {
			t.rr[h] = make([]uint32, n)
		}
	}
	return t, nil
}

// FromSplit converts a minimal-split switch path into a Route, choosing an
// in-transit host at every break switch exactly as Build does; the salt
// rotates the host choice so a break switch's NICs share the re-injection
// load (Build passes src*31+dst*17+altIndex). It exists for callers that
// rebuild individual routes outside Build — the rip-up/reroute optimizer —
// and performs the same structural checks, failing if a break switch has
// no hosts.
func FromSplit(net *topology.Network, sp itbroute.Split, salt int) (*Route, error) {
	return routeFromSplitWithHosts(net, sp, salt)
}

// routeFromSplit converts a split with no ITB hosts assigned (single
// segment) to a Route.
func routeFromSplit(net *topology.Network, sp itbroute.Split) (*Route, error) {
	return routeFromSplitWithHosts(net, sp, 0)
}

// routeFromSplitWithHosts converts a split to a Route, choosing an
// in-transit host at every break switch. The salt rotates the host choice
// across alternatives so the 8 NICs of a break switch share the re-injection
// load.
func routeFromSplitWithHosts(net *topology.Network, sp itbroute.Split, salt int) (*Route, error) {
	segs := sp.Segments()
	r := &Route{
		SrcSwitch: sp.Path[0],
		DstSwitch: sp.Path[len(sp.Path)-1],
		Segs:      make([]Seg, 0, len(segs)),
		Hops:      len(sp.Path) - 1,
	}
	for i, seg := range segs {
		chans := updown.ChannelSeq(net, seg)
		itb := -1
		if i+1 < len(segs) {
			breakSw := seg[len(seg)-1]
			hosts := net.HostsAt(breakSw)
			if len(hosts) == 0 {
				return nil, fmt.Errorf("routes: break switch %d has no hosts", breakSw)
			}
			idx := (salt + i) % len(hosts)
			if idx < 0 {
				idx += len(hosts)
			}
			itb = hosts[idx]
		}
		r.Segs = append(r.Segs, Seg{Channels: chans, ITBHost: itb})
	}
	return r, nil
}

// Route returns the route a packet from srcHost to dstHost should follow,
// honouring the table's path selection policy. For ITB-RR the per-source
// round-robin cursor advances on every call, exactly as a NIC cycling
// through its table entries would.
func (t *Table) Route(srcHost, dstHost int) *Route {
	s := t.Net.SwitchOf(srcHost)
	d := t.Net.SwitchOf(dstHost)
	return t.pick(srcHost, d, t.Alts[s][d])
}

// Lookup is Route for tables that may be partial: degraded-mode tables
// built after faults can have switch pairs with no surviving route, for
// which Lookup returns nil instead of selecting from an empty alternative
// list. Selection state advances exactly as in Route.
func (t *Table) Lookup(srcHost, dstHost int) *Route {
	s := t.Net.SwitchOf(srcHost)
	d := t.Net.SwitchOf(dstHost)
	alts := t.Alts[s][d]
	if len(alts) == 0 {
		return nil
	}
	return t.pick(srcHost, d, alts)
}

func (t *Table) pick(srcHost, d int, alts []*Route) *Route {
	if len(alts) == 1 {
		return alts[0]
	}
	if t.sel != nil {
		return t.sel.Select(srcHost, d, alts)
	}
	if t.rr == nil {
		return alts[0]
	}
	i := t.rr[srcHost][d] % uint32(len(alts))
	t.rr[srcHost][d]++
	return alts[i]
}

// Alternatives returns the route alternatives for a switch pair (read-only).
func (t *Table) Alternatives(srcSwitch, dstSwitch int) []*Route {
	return t.Alts[srcSwitch][dstSwitch]
}

// Clone returns a table sharing the (immutable) route alternatives but with
// fresh round-robin state and a fresh clone of the selector, if any. Tables
// are not safe for concurrent use because Route advances the selection
// state; the simulator works on a Clone of the table it is handed.
func (t *Table) Clone() *Table {
	c := &Table{Net: t.Net, Scheme: t.Scheme, Alts: t.Alts, NumVCs: t.NumVCs}
	if t.rr != nil {
		c.rr = make([][]uint32, len(t.rr))
		for h := range c.rr {
			c.rr[h] = make([]uint32, len(t.rr[h]))
		}
	}
	if t.sel != nil {
		c.sel = t.sel.Clone()
	}
	return c
}

// Fingerprint digests the table's full routing content — scheme, layer
// count, and every alternative's switches, segments, in-transit hosts,
// channels and VC lane, in pair-then-alternative order — into one 64-bit
// value. Two tables fingerprint equal exactly when they route identically,
// so a checkpoint header can detect a resumed run whose table was built,
// optimized, or degraded differently even though scheme and shape agree.
// Selection state (round-robin cursors, selectors) is excluded: it is
// mid-run state, snapshotted separately.
func (t *Table) Fingerprint() uint64 {
	h := fnv.New64a()
	var scratch [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		//lint:ignore errcheck-lite hash.Hash.Write is documented to never return an error
		h.Write(scratch[:])
	}
	word(uint64(t.Scheme))
	word(uint64(t.NumVCs))
	word(uint64(len(t.Alts)))
	for s := range t.Alts {
		for d := range t.Alts[s] {
			word(uint64(len(t.Alts[s][d])))
			for _, r := range t.Alts[s][d] {
				word(uint64(r.SrcSwitch))
				word(uint64(r.DstSwitch))
				word(uint64(r.Hops))
				word(uint64(r.AltIndex))
				word(uint64(r.VC))
				word(uint64(len(r.Segs)))
				for _, seg := range r.Segs {
					word(uint64(int64(seg.ITBHost)))
					word(uint64(len(seg.Channels)))
					for _, c := range seg.Channels {
						word(uint64(c))
					}
				}
			}
		}
	}
	return h.Sum64()
}

// RR returns the table's live round-robin cursors, rr[srcHost][dstSwitch]
// (nil for schemes without them). The checkpoint codec reads and writes
// them in place.
func (t *Table) RR() [][]uint32 { return t.rr }

// Rebase returns a table that routes over next's alternatives (and its
// network, scheme and lane count) while keeping t's selection state: its
// round-robin cursors and selector, shared rather than copied. The
// simulator uses it to carry selection state onto a degraded-mode table
// recomputed mid-run for the same scheme.
func (t *Table) Rebase(next *Table) *Table {
	return &Table{Net: next.Net, Scheme: next.Scheme, Alts: next.Alts, NumVCs: next.NumVCs, rr: t.rr, sel: t.sel}
}

// Stats summarises static properties of a routing table, matching the
// figures quoted in §4.7.1 of the paper.
type Stats struct {
	Scheme          Scheme
	Pairs           int     // ordered switch pairs (src != dst)
	AvgDistance     float64 // mean hops over pairs and alternatives
	AvgITBs         float64 // mean in-transit hosts per route
	MinimalFraction float64 // fraction of routes that are minimal in the raw graph
	MaxAlternatives int
}

// ComputeStats scans the table.
func (t *Table) ComputeStats() Stats {
	st := Stats{Scheme: t.Scheme}
	raw := t.Net.AllDistances()
	for s := range t.Alts {
		for d := range t.Alts[s] {
			if s == d {
				continue
			}
			st.Pairs++
			alts := t.Alts[s][d]
			if len(alts) > st.MaxAlternatives {
				st.MaxAlternatives = len(alts)
			}
			var hops, itbs, minimal float64
			for _, r := range alts {
				hops += float64(r.Hops)
				itbs += float64(r.NumITBs())
				if r.Hops == raw[s][d] {
					minimal++
				}
			}
			k := float64(len(alts))
			st.AvgDistance += hops / k
			st.AvgITBs += itbs / k
			st.MinimalFraction += minimal / k
		}
	}
	if st.Pairs > 0 {
		st.AvgDistance /= float64(st.Pairs)
		st.AvgITBs /= float64(st.Pairs)
		st.MinimalFraction /= float64(st.Pairs)
	}
	return st
}

// Validate checks structural invariants of every route in the table:
// segments chain through the network, channels are adjacent, ITB hosts sit
// on the segment's final switch. The simulator trusts validated tables.
func (t *Table) Validate() error {
	for s := range t.Alts {
		for d := range t.Alts[s] {
			for _, r := range t.Alts[s][d] {
				if err := t.validateRoute(s, d, r); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (t *Table) validateRoute(s, d int, r *Route) error {
	if r.SrcSwitch != s || r.DstSwitch != d {
		return fmt.Errorf("routes: route filed under %d->%d claims %d->%d", s, d, r.SrcSwitch, r.DstSwitch)
	}
	cur := s
	hops := 0
	for i, seg := range r.Segs {
		for _, c := range seg.Channels {
			if c < 0 || c >= t.Net.NumChannels() {
				return fmt.Errorf("routes: %d->%d: channel %d out of range (network has %d)", s, d, c, t.Net.NumChannels())
			}
			from, to := t.Net.ChannelEnds(c)
			if from != cur {
				return fmt.Errorf("routes: %d->%d: channel %d starts at %d, expected %d", s, d, c, from, cur)
			}
			cur = to
			hops++
		}
		last := i == len(r.Segs)-1
		if last {
			if seg.ITBHost != -1 {
				return fmt.Errorf("routes: %d->%d: final segment has ITB host %d", s, d, seg.ITBHost)
			}
		} else {
			if seg.ITBHost < 0 || seg.ITBHost >= t.Net.NumHosts() {
				return fmt.Errorf("routes: %d->%d: segment %d ITB host %d out of range", s, d, i, seg.ITBHost)
			}
			if t.Net.SwitchOf(seg.ITBHost) != cur {
				return fmt.Errorf("routes: %d->%d: ITB host %d not attached to switch %d", s, d, seg.ITBHost, cur)
			}
		}
	}
	if cur != d {
		return fmt.Errorf("routes: %d->%d: route ends at %d", s, d, cur)
	}
	if hops != r.Hops {
		return fmt.Errorf("routes: %d->%d: Hops=%d but route has %d", s, d, r.Hops, hops)
	}
	if r.VC < 0 || (t.NumVCs > 0 && r.VC >= t.NumVCs) || (t.NumVCs == 0 && r.VC != 0) {
		return fmt.Errorf("routes: %d->%d: VC %d out of range (table has %d)", s, d, r.VC, t.NumVCs)
	}
	return nil
}
