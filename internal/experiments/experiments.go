// Package experiments assembles topologies, routing tables, traffic
// patterns and the simulator into the exact experiments of the paper's
// evaluation (§4.7): latency-vs-accepted-traffic sweeps (figures 7, 10,
// 12), link-utilization snapshots (figures 8, 9, 11), and hotspot
// throughput batteries (tables 1–3).
package experiments

import (
	"context"
	"fmt"

	"itbsim/internal/faults"
	"itbsim/internal/metrics"
	"itbsim/internal/netsim"
	"itbsim/internal/optimize"
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
// share them. The table cache is the runner's, so harness runs and direct
// RunOne calls on the same Env share builds.
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
// is the master copy; clone it before concurrent use.
func (e *Env) Table(s routes.Scheme) (*routes.Table, error) {
	return e.Cache.Get(e.Net, routes.DefaultConfig(s))
}

// Pattern is a declarative traffic pattern specification; it is the
// runner's type, shared so harness call sites and RunSpecs interoperate.
type Pattern = runner.Pattern

// RunOptions tune how a harness executes on the runner: worker count,
// cancellation, and progress reporting. The zero value runs with
// GOMAXPROCS workers, no cancellation, and no reporter.
type RunOptions struct {
	Parallel int
	Context  context.Context
	Reporter runner.Reporter
	// Metrics enables the windowed observability collector on every point
	// (see docs/METRICS.md); telemetry lands in each Result and in
	// Report.MetricsPoints.
	Metrics *metrics.Config
	// Faults schedules link/switch failures (and repairs) on every point;
	// the runner attaches a per-curve reconfiguration controller that
	// recovers by recomputing routes on the degraded topology (see
	// docs/FAULTS.md).
	Faults *faults.Plan
	// VCs overrides the virtual-channel lane count of the VC routing
	// scheme's tables (0 keeps the scheme default of 2). Other schemes
	// ignore it.
	VCs int
	// Optimize enables the congestion-aware route optimizer on every
	// curve: a profiling pre-pass measures link utilization, the
	// rip-up/reroute (or escape-prune) pass rewrites the routing table
	// around the hotspots, and the curve sweeps on the optimized table
	// (see docs/OPTIMIZE.md). Nil sweeps the builder's static tables.
	Optimize *optimize.Config
	// CheckpointDir enables the crash-safe sweep journal in that
	// directory (see docs/CHECKPOINT.md); CheckpointEvery is the
	// in-flight snapshot period in cycles (0 = the runner default); and
	// Resume picks a killed sweep back up from the directory's journal.
	CheckpointDir   string
	CheckpointEvery int64
	Resume          bool
}

// routeConfigFor maps a scheme to its table-construction config, applying
// the VC lane-count override; it is the RouteConfig every harness spec and
// direct point share, so cached tables are keyed consistently.
func routeConfigFor(scheme routes.Scheme, vcs int) routes.Config {
	cfg := routes.DefaultConfig(scheme)
	if vcs > 0 && scheme == routes.VC {
		cfg.VCs = vcs
	}
	return cfg
}

// SpecFor assembles the runner spec the harnesses share: the environment's
// network and table cache, the scale's measurement preset, and the grid of
// schemes × patterns over the load grid.
func SpecFor(e *Env, schemes []routes.Scheme, pats []Pattern, loads []float64, msgBytes int, seed int64, opt RunOptions) runner.Spec {
	pre := PresetFor(e.Scale)
	return runner.Spec{
		Net:             e.Net,
		Schemes:         schemes,
		Patterns:        pats,
		Loads:           loads,
		MessageBytes:    msgBytes,
		Seed:            seed,
		WarmupMessages:  pre.Warmup,
		MeasureMessages: pre.Measure,
		MaxCycles:       pre.MaxCycles,
		Label:           e.Topo,
		Cache:           e.Cache,
		Parallel:        opt.Parallel,
		Context:         opt.Context,
		Reporter:        opt.Reporter,
		Metrics:         opt.Metrics,
		Faults:          opt.Faults,
		Optimize:        opt.Optimize,
		CheckpointDir:   opt.CheckpointDir,
		CheckpointEvery: opt.CheckpointEvery,
		Resume:          opt.Resume,
		RouteConfig: func(s routes.Scheme) routes.Config {
			return routeConfigFor(s, opt.VCs)
		},
	}
}

// PointOptions tune a single direct simulation point (RunOnePoint): the
// optional accounting and tracing attachments of netsim.Config.
type PointOptions struct {
	CollectLinkUtil bool
	Metrics         *metrics.Config
	Tracer          netsim.Tracer
	// VCs overrides the VC scheme's lane count, as in RunOptions.VCs.
	VCs int
}

// RunOne executes a single simulation point.
func RunOne(e *Env, scheme routes.Scheme, p Pattern, load float64, msgBytes int, seed int64, collectUtil bool) (*netsim.Result, error) {
	return RunOnePoint(e, scheme, p, load, msgBytes, seed, PointOptions{CollectLinkUtil: collectUtil})
}

// RunOneTraced is RunOne with an optional packet life-cycle tracer.
func RunOneTraced(e *Env, scheme routes.Scheme, p Pattern, load float64, msgBytes int, seed int64, collectUtil bool, tracer netsim.Tracer) (*netsim.Result, error) {
	return RunOnePoint(e, scheme, p, load, msgBytes, seed, PointOptions{CollectLinkUtil: collectUtil, Tracer: tracer})
}

// RunOnePoint executes a single simulation point with explicit options.
func RunOnePoint(e *Env, scheme routes.Scheme, p Pattern, load float64, msgBytes int, seed int64, opt PointOptions) (*netsim.Result, error) {
	tab, err := e.Cache.Get(e.Net, routeConfigFor(scheme, opt.VCs))
	if err != nil {
		return nil, err
	}
	dest, err := p.DestFn(e.Net)
	if err != nil {
		return nil, err
	}
	pre := PresetFor(e.Scale)
	return netsim.Run(netsim.Config{
		Net:             e.Net,
		Table:           tab.Clone(),
		Dest:            dest,
		Load:            load,
		MessageBytes:    msgBytes,
		Seed:            seed,
		WarmupMessages:  pre.Warmup,
		MeasureMessages: pre.Measure,
		MaxCycles:       pre.MaxCycles,
		CollectLinkUtil: opt.CollectLinkUtil,
		Metrics:         opt.Metrics,
		Tracer:          opt.Tracer,
	})
}

// Sweep runs ascending loads for one scheme, stopping one point after
// saturation is first observed (accepted < 92% of injected), and returns
// the latency/traffic curve. The load walk is sequential — the early stop
// makes points order-dependent — so per-curve results are identical to a
// parallel multi-curve run; use SweepOpts (or the runner directly) to run
// several curves concurrently.
func Sweep(e *Env, scheme routes.Scheme, p Pattern, loads []float64, msgBytes int, seed int64) (stats.Curve, error) {
	return SweepOpts(e, scheme, p, loads, msgBytes, seed, RunOptions{})
}

// SweepOpts is Sweep with explicit runner options.
func SweepOpts(e *Env, scheme routes.Scheme, p Pattern, loads []float64, msgBytes int, seed int64, opt RunOptions) (stats.Curve, error) {
	rep, err := runner.Run(SpecFor(e, []routes.Scheme{scheme}, []Pattern{p}, loads, msgBytes, seed, opt))
	if err != nil {
		if rep != nil && len(rep.Curves) > 0 {
			return rep.Curves[0].Curve, err
		}
		return stats.Curve{}, err
	}
	return rep.Curves[0].Curve, nil
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
