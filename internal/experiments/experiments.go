// Package experiments assembles topologies, routing tables, traffic
// patterns and the simulator into the exact experiments of the paper's
// evaluation (§4.7): latency-vs-accepted-traffic sweeps (figures 7, 10,
// 12), link-utilization snapshots (figures 8, 9, 11), and hotspot
// throughput batteries (tables 1–3).
package experiments

import (
	"fmt"

	"itbsim/internal/routes"
	"itbsim/internal/runner"
	"itbsim/internal/stats"
	"itbsim/internal/topology"
)

// Scale selects the experiment size. The paper scale matches §4.1 exactly;
// the smaller scales keep the switch fabric (so routing properties are
// unchanged) but attach fewer hosts and measure fewer messages, making the
// full suite runnable in seconds to minutes.
type Scale int

const (
	// ScaleSmall: 4x4 switch fabrics, 2 hosts per switch. Unit tests.
	ScaleSmall Scale = iota
	// ScaleMedium: the paper's switch fabrics, 2 hosts per switch.
	// Default for benchmarks.
	ScaleMedium
	// ScalePaper: §4.1 exactly — 64-switch tori with 8 hosts per switch
	// (512 hosts), 50-switch CPLANT with 400 hosts.
	ScalePaper
)

func (s Scale) String() string {
	switch s {
	case ScaleSmall:
		return "small"
	case ScaleMedium:
		return "medium"
	case ScalePaper:
		return "paper"
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// ParseScale converts a command-line name.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "small":
		return ScaleSmall, nil
	case "medium":
		return ScaleMedium, nil
	case "paper", "full":
		return ScalePaper, nil
	}
	return 0, fmt.Errorf("experiments: unknown scale %q (want small, medium, or paper)", s)
}

// Topologies evaluated by the paper, the random irregular NOWs of the
// companion studies, and the low-diameter fabrics added for the
// virtual-channel comparison (docs/TOPOLOGIES.md catalogues all of them).
const (
	TopoTorus     = "torus"
	TopoExpress   = "express"
	TopoCplant    = "cplant"
	TopoIrregular = "irregular"
	TopoDragonfly = "dragonfly"
	TopoHyperX    = "hyperx"
	TopoFullMesh  = "fullmesh"
)

// BuildNetwork constructs one of the paper's topologies at a scale.
func BuildNetwork(topo string, scale Scale) (*topology.Network, error) {
	rows, cols, hosts := 8, 8, 8
	switch scale {
	case ScaleSmall:
		rows, cols, hosts = 4, 4, 2
	case ScaleMedium:
		hosts = 2
	case ScalePaper:
	default:
		return nil, fmt.Errorf("experiments: unknown scale %v", scale)
	}
	switch topo {
	case TopoTorus:
		return topology.NewTorus(rows, cols, hosts, 16)
	case TopoExpress:
		return topology.NewExpressTorus(rows, cols, hosts, 16)
	case TopoCplant:
		// CPLANT's switch fabric is fixed; only the host count scales.
		return topology.NewCplant(hosts, 16)
	case TopoIrregular:
		// A fixed-seed random irregular NOW sized like the tori's fabric.
		return topology.NewRandomIrregular(rows*cols, 4, hosts, 16, 20000)
	case TopoDragonfly:
		// 9 groups of 4 routers at paper/medium scale (36 switches, near
		// the tori's fabric size); a 4-group fabric for unit tests.
		if scale == ScaleSmall {
			return topology.NewDragonfly(4, 3, 1, hosts, 8)
		}
		return topology.NewDragonfly(9, 4, 2, hosts, 16)
	case TopoHyperX:
		// A 5x5 2-D HyperX (25 switches); 3x3 for unit tests.
		if scale == ScaleSmall {
			return topology.NewHyperX([]int{3, 3}, hosts, 8)
		}
		return topology.NewHyperX([]int{5, 5}, hosts, 16)
	case TopoFullMesh:
		// 9 fully-connected switches; 5 for unit tests.
		if scale == ScaleSmall {
			return topology.NewFullMesh(5, hosts, 8)
		}
		return topology.NewFullMesh(9, hosts, 16)
	}
	return nil, fmt.Errorf("experiments: unknown topology %q (want torus, express, cplant, irregular, dragonfly, hyperx, or fullmesh)", topo)
}

// MeasurePreset bundles the run-length parameters of a scale.
type MeasurePreset struct {
	Warmup    int
	Measure   int
	MaxCycles int64
}

// PresetFor returns the measurement protocol used at a scale.
func PresetFor(scale Scale) MeasurePreset {
	switch scale {
	case ScaleSmall:
		return MeasurePreset{Warmup: 100, Measure: 600, MaxCycles: 8_000_000}
	case ScaleMedium:
		return MeasurePreset{Warmup: 300, Measure: 2000, MaxCycles: 12_000_000}
	default:
		return MeasurePreset{Warmup: 1000, Measure: 8000, MaxCycles: 30_000_000}
	}
}

// Env caches a network and its routing tables across the experiments that
// share them. The table cache is the runner's, so every run on the same
// Env shares builds.
type Env struct {
	Topo  string
	Scale Scale
	Net   *topology.Network
	Cache *runner.TableCache
}

// NewEnv builds the network for a topology/scale pair.
func NewEnv(topo string, scale Scale) (*Env, error) {
	net, err := BuildNetwork(topo, scale)
	if err != nil {
		return nil, err
	}
	return &Env{Topo: topo, Scale: scale, Net: net, Cache: runner.NewTableCache()}, nil
}

// Table returns the (cached) routing table for a scheme. The returned table
// is the shared master copy; never mutate it.
func (e *Env) Table(s routes.Scheme) (*routes.Table, error) {
	return e.Cache.Get(e.Net, routes.DefaultConfig(s))
}

// Pattern is a declarative traffic pattern specification; it is the
// runner's type, shared so harness call sites and RunSpecs interoperate.
type Pattern = runner.Pattern

// SpecFor completes a base runner spec for the environment. The base
// carries how to run (workers, cancellation, reporting, metrics, faults,
// the optimizer, checkpointing, tracing, and the route configuration);
// SpecFor fills in what to run: the environment's network, table cache
// and label, the schemes × patterns grid over the load grid, and the
// scale's measurement preset. The zero base runs with the runner's
// defaults.
func SpecFor(e *Env, schemes []routes.Scheme, pats []Pattern, loads []float64, msgBytes int, seed int64, base runner.Spec) runner.Spec {
	pre := PresetFor(e.Scale)
	base.Net = e.Net
	base.Schemes = schemes
	base.Patterns = pats
	base.Loads = loads
	base.MessageBytes = msgBytes
	base.Seed = seed
	base.WarmupMessages = pre.Warmup
	base.MeasureMessages = pre.Measure
	base.MaxCycles = pre.MaxCycles
	base.Label = e.Topo
	base.Cache = e.Cache
	return base
}

// Sweep runs ascending loads for one scheme, stopping one point after
// saturation is first observed (accepted < 92% of injected), and returns
// the latency/traffic curve; on error the partial curve comes with it.
func Sweep(e *Env, scheme routes.Scheme, p Pattern, loads []float64, msgBytes int, seed int64, base runner.Spec) (stats.Curve, error) {
	rep, err := runner.Run(SpecFor(e, []routes.Scheme{scheme}, []Pattern{p}, loads, msgBytes, seed, base))
	if rep == nil {
		return stats.Curve{}, err
	}
	return rep.Curves[0].Curve, err
}

// DefaultLoads returns the sweep grid for a topology at a scale, covering
// the paper's figure ranges with headroom. The same grid serves all
// schemes; sweeps early-stop past saturation. The small (4x4) fabrics have
// half the average distance and a quarter of the switches of the paper's,
// so their per-switch saturation sits roughly 3x higher.
func DefaultLoads(topo string, scale Scale) []float64 {
	var base []float64
	switch topo {
	case TopoExpress:
		base = []float64{0.01, 0.02, 0.03, 0.045, 0.06, 0.075, 0.09, 0.105, 0.12, 0.135, 0.15}
	case TopoCplant:
		base = []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.065, 0.08, 0.095, 0.11, 0.125}
	case TopoDragonfly, TopoHyperX:
		// Low-diameter fabrics: 2-3 hops to anywhere, so saturation sits
		// well above the tori's.
		base = []float64{0.02, 0.04, 0.06, 0.08, 0.10, 0.125, 0.15, 0.175, 0.20, 0.23}
	case TopoFullMesh:
		// Diameter 1: every pair one hop apart; only the host links and the
		// single channel per pair limit throughput.
		base = []float64{0.03, 0.06, 0.09, 0.12, 0.16, 0.20, 0.24, 0.28, 0.32}
	default: // torus
		base = []float64{0.002, 0.005, 0.008, 0.011, 0.014, 0.017, 0.021, 0.025, 0.029, 0.033, 0.037}
	}
	if scale == ScaleSmall {
		return scaleLoads(base, 3)
	}
	return base
}

// LocalLoads is the wider grid used for the local traffic pattern (figure
// 12), whose saturation points are several times higher.
func LocalLoads(topo string, scale Scale) []float64 {
	var base []float64
	switch topo {
	case TopoExpress:
		base = []float64{0.05, 0.09, 0.13, 0.17, 0.21, 0.25, 0.29, 0.33}
	case TopoCplant:
		base = []float64{0.04, 0.07, 0.10, 0.13, 0.16, 0.19, 0.22}
	case TopoDragonfly, TopoHyperX, TopoFullMesh:
		base = []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35}
	default:
		base = []float64{0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16}
	}
	if scale == ScaleSmall {
		return scaleLoads(base, 2)
	}
	return base
}

func scaleLoads(base []float64, f float64) []float64 {
	out := make([]float64, len(base))
	for i, l := range base {
		out[i] = l * f
	}
	return out
}
