// Package itbsim is a simulator and routing library for regular networks
// with source routing, reproducing "Improving the Performance of Regular
// Networks with Source Routing" (Flich, López, Malumbres, Duato — ICPP
// 2000).
//
// The library provides:
//
//   - Topology generators for the paper's networks: 2-D torus, 2-D torus
//     with express channels, and the Sandia CPLANT cluster, plus meshes,
//     hypercubes, random irregular networks and custom edge lists.
//   - Up*/down* source routing as Myrinet implements it, including a
//     re-implementation of the simple_routes balanced path selection.
//   - The in-transit buffer (ITB) mechanism: minimal source routes split
//     into legal up*/down* segments at intermediate hosts, with single-path
//     (ITB-SP) and round-robin (ITB-RR) path selection policies.
//   - A cycle-driven flit-level network simulator with Myrinet timing:
//     pipelined 160 MB/s links, stop & go flow control, 150 ns routing,
//     and NIC-level in-transit buffer handling.
//   - The paper's traffic patterns (uniform, bit-reversal, hotspot, local)
//     and experiment harnesses for every figure and table in §4.7.
//
// Quick start:
//
//	net, _ := itbsim.NewTorus(8, 8, 8)
//	table, _ := itbsim.BuildRoutes(net, itbsim.ITBRR)
//	dest, _ := itbsim.Uniform(net.NumHosts())
//	res, _ := itbsim.Simulate(itbsim.SimConfig{
//		Net: net, Table: table, Dest: dest,
//		Load: 0.02, MessageBytes: 512, Seed: 1,
//		WarmupMessages: 500, MeasureMessages: 2000,
//	})
//	fmt.Printf("latency %.0f ns at %.4f flits/ns/switch\n",
//		res.AvgLatencyNs, res.Accepted)
package itbsim

import (
	"io"

	"itbsim/internal/faults"
	"itbsim/internal/netsim"
	"itbsim/internal/routes"
	"itbsim/internal/topology"
	"itbsim/internal/traffic"
)

// Network is a static description of switches, hosts, and links.
type Network = topology.Network

// Scheme selects a routing algorithm.
type Scheme = routes.Scheme

// Routing schemes evaluated by the paper.
const (
	// UpDown is the original Myrinet up*/down* routing with
	// simple_routes-style balanced path selection.
	UpDown = routes.UpDown
	// ITBSP is minimal routing with in-transit buffers, single path.
	ITBSP = routes.ITBSP
	// ITBRR is minimal routing with in-transit buffers, round-robin over
	// up to 10 alternative minimal paths.
	ITBRR = routes.ITBRR
	// UpDownMin uses all shortest legal up*/down* paths round-robin, no
	// in-transit buffers — the alternative baseline §4.5 reports
	// simple_routes outperforms.
	UpDownMin = routes.UpDownMin
	// VC is minimal routing over virtual-channel flow control with a LASH
	// layer assignment: each route is pinned to one lane, lane 0 kept
	// deadlock-free as the escape layer. An alternative to ITBs that needs
	// no intermediate-host ejection; see docs/VC.md.
	VC = routes.VC
)

// RoutingTable maps host pairs to source routes under a scheme.
type RoutingTable = routes.Table

// RouteStats summarises static properties of a routing table.
type RouteStats = routes.Stats

// SimConfig configures a simulation run.
type SimConfig = netsim.Config

// SimParams are the Myrinet timing/sizing constants.
type SimParams = netsim.Params

// Result carries the measurements of a simulation run.
type Result = netsim.Result

// DestFn chooses message destinations; see the traffic constructors.
type DestFn = netsim.DestFn

// FaultPlan schedules link/switch failures and repairs at simulation
// cycles; set it on SimConfig.Faults (or RunSpec.Faults) to exercise
// degraded-mode routing. See docs/FAULTS.md.
type FaultPlan = faults.Plan

// FaultController recomputes routing tables on the surviving topology
// after each failure; set one on SimConfig.Reconfigurer (RunSpec wires a
// per-curve controller automatically).
type FaultController = faults.Controller

// ReconfigStat records one completed mid-run routing reconfiguration.
type ReconfigStat = netsim.ReconfigStat

// DropStats breaks Result.DroppedPackets down by cause.
type DropStats = netsim.DropStats

// StallDump is the stalled-packet diagnostic of a truncated run.
type StallDump = netsim.StallDump

// ParseFaultPlan parses the -faults command-line syntax, e.g.
// "link:12@200000,+link:12@800000".
func ParseFaultPlan(s string) (*FaultPlan, error) { return faults.ParsePlan(s) }

// NewFaultController returns a reconfiguration controller that re-runs
// topology discovery from mapperHost and rebuilds cfg's routes on the
// degraded graph.
func NewFaultController(net *Network, mapperHost int, cfg BuildRoutesConfig) *FaultController {
	return faults.NewController(net, mapperHost, cfg)
}

// ConfigError is the typed validation error of the New* topology
// constructors and of SimConfig validation: the offending field, the value
// given, and why it was rejected. Unwrap with errors.As:
//
//	if _, err := itbsim.NewTorus(1, 8, 8); err != nil {
//		var ce *itbsim.ConfigError
//		if errors.As(err, &ce) {
//			fmt.Println(ce.Field, ce.Reason)
//		}
//	}
type ConfigError = topology.ConfigError

// NewTorus builds a rows×cols 2-D torus with hostsPerSwitch hosts per
// 16-port switch. The paper's configuration is NewTorus(8, 8, 8).
func NewTorus(rows, cols, hostsPerSwitch int) (*Network, error) {
	return topology.NewTorus(rows, cols, hostsPerSwitch, 16)
}

// NewExpressTorus builds a 2-D torus whose switches also connect to their
// second-order neighbours through express channels. The paper's
// configuration is NewExpressTorus(8, 8, 8): all 16 switch ports used.
func NewExpressTorus(rows, cols, hostsPerSwitch int) (*Network, error) {
	return topology.NewExpressTorus(rows, cols, hostsPerSwitch, 16)
}

// NewCplant builds the Sandia CPLANT topology: 50 16-port switches in 6
// hypercube groups plus an extra pair, 8 hosts per switch in the paper's
// configuration.
func NewCplant(hostsPerSwitch int) (*Network, error) {
	return topology.NewCplant(hostsPerSwitch, 16)
}

// NewMesh builds a rows×cols 2-D mesh (no wrap-around).
func NewMesh(rows, cols, hostsPerSwitch int) (*Network, error) {
	return topology.NewMesh(rows, cols, hostsPerSwitch, 16)
}

// NewHypercube builds a dim-dimensional hypercube.
func NewHypercube(dim, hostsPerSwitch int) (*Network, error) {
	return topology.NewHypercube(dim, hostsPerSwitch, 16)
}

// NewTorus3D builds an x×y×z 3-D torus.
func NewTorus3D(x, y, z, hostsPerSwitch int) (*Network, error) {
	return topology.NewTorus3D(x, y, z, hostsPerSwitch, 16)
}

// NewFatTree builds a k-ary n-tree with k hosts per leaf switch.
func NewFatTree(k, n int) (*Network, error) {
	return topology.NewFatTree(k, n, 16)
}

// NewDragonfly builds a dragonfly: groups of aPerGroup fully-meshed
// routers, hPerRouter global links per router spreading over the other
// groups. A palmtree global arrangement keeps the fabric regular.
func NewDragonfly(groups, aPerGroup, hPerRouter, hostsPerSwitch int) (*Network, error) {
	return topology.NewDragonfly(groups, aPerGroup, hPerRouter, hostsPerSwitch, 16)
}

// NewHyperX builds a HyperX: switches on a multidimensional lattice, fully
// connected along every axis-aligned line.
func NewHyperX(dims []int, hostsPerSwitch int) (*Network, error) {
	return topology.NewHyperX(dims, hostsPerSwitch, 16)
}

// NewFullMesh builds a full mesh: every switch pair directly linked.
func NewFullMesh(switches, hostsPerSwitch int) (*Network, error) {
	return topology.NewFullMesh(switches, hostsPerSwitch, 16)
}

// NewCustom builds a network from an explicit switch-to-switch edge list
// with hostsPerSwitch hosts attached to every switch.
func NewCustom(name string, switches int, edges [][2]int, hostsPerSwitch, switchPorts int) (*Network, error) {
	return topology.NewFromEdges(name, switches, edges, hostsPerSwitch, switchPorts)
}

// BuildRoutes computes the routing table for a network under a scheme with
// the paper's defaults (root switch 0, at most 10 alternative routes).
func BuildRoutes(net *Network, s Scheme) (*RoutingTable, error) {
	return routes.Build(net, routes.DefaultConfig(s))
}

// BuildRoutesConfig exposes the full routing configuration.
type BuildRoutesConfig = routes.Config

// BuildRoutesWith computes a routing table with explicit configuration.
func BuildRoutesWith(net *Network, cfg BuildRoutesConfig) (*RoutingTable, error) {
	return routes.Build(net, cfg)
}

// DefaultParams returns the Myrinet constants of §4.3–§4.5.
func DefaultParams() SimParams { return netsim.DefaultParams() }

// Simulate runs one simulation. See SimConfig for the knobs.
func Simulate(cfg SimConfig) (*Result, error) { return netsim.Run(cfg) }

// Uniform returns the uniform destination distribution.
func Uniform(numHosts int) (DestFn, error) { return traffic.Uniform(numHosts) }

// BitReversal returns the bit-reversal permutation distribution (requires a
// power-of-two host count).
func BitReversal(numHosts int) (DestFn, error) { return traffic.BitReversal(numHosts) }

// Hotspot returns the hotspot distribution: fraction of the traffic goes to
// the hotspot host, the rest is uniform.
func Hotspot(numHosts, hotspot int, fraction float64) (DestFn, error) {
	return traffic.Hotspot(numHosts, hotspot, fraction)
}

// Local returns the local distribution: destinations at most maxSwitches
// switches away from the source.
func Local(net *Network, maxSwitches int) (DestFn, error) {
	return traffic.Local(net, maxSwitches)
}

// Selector chooses among alternative minimal routes at the source NIC; see
// SetSelector on RoutingTable. Beyond the paper's round-robin, the library
// provides random, fewest-ITB, and latency-adaptive policies (the source
// -host adaptivity the paper names as future work). Each simulation runs
// its own clone of the table's selector and checkpoints its state.
type Selector = routes.Selector

// AdaptiveConfig tunes NewAdaptiveSelector.
type AdaptiveConfig = routes.AdaptiveConfig

// NewRandomSelector picks a uniformly random alternative per message.
func NewRandomSelector(seed int64) Selector { return routes.NewRandomSelector(seed) }

// NewFewestITBSelector always picks the alternative with the fewest
// in-transit buffers.
func NewFewestITBSelector() Selector { return routes.NewFewestITBSelector() }

// NewAdaptiveSelector keeps an EWMA of observed latencies per alternative
// and routes over the lowest estimate. The simulator feeds it the latency
// of every measured delivery; installing it is all it takes:
//
//	table.SetSelector(itbsim.NewAdaptiveSelector(itbsim.DefaultAdaptiveConfig()))
func NewAdaptiveSelector(cfg AdaptiveConfig) Selector { return routes.NewAdaptiveSelector(cfg) }

// DefaultAdaptiveConfig returns the recommended adaptive-selector tuning.
func DefaultAdaptiveConfig() AdaptiveConfig { return routes.DefaultAdaptiveConfig() }

// Tracer observes packet life-cycle events (generate, inject, per-switch
// route, ITB eject/re-inject, deliver, and the fault path's drop, retry and
// reconfigure); set SimConfig.Tracer to enable.
type Tracer = netsim.Tracer

// Event is one traced packet life-cycle event.
type Event = netsim.Event

// RingTracer retains the most recent events in a fixed-size ring.
type RingTracer = netsim.RingTracer

// CountTracer counts events by kind.
type CountTracer = netsim.CountTracer

// NewRingTracer allocates a tracer holding the last n events.
func NewRingTracer(n int) *RingTracer { return netsim.NewRingTracer(n) }

// EncodeNetwork writes a network as JSON; DecodeNetwork reads it back.
func EncodeNetwork(w io.Writer, n *Network) error { return topology.Encode(w, n) }

// DecodeNetwork reads a network written by EncodeNetwork.
func DecodeNetwork(r io.Reader) (*Network, error) { return topology.Decode(r) }

// EncodeRoutes writes a routing table as JSON; DecodeRoutes reads it back
// and validates it against the given network.
func EncodeRoutes(w io.Writer, t *RoutingTable) error { return routes.Encode(w, t) }

// DecodeRoutes reads a table written by EncodeRoutes.
func DecodeRoutes(r io.Reader, net *Network) (*RoutingTable, error) { return routes.Decode(r, net) }
