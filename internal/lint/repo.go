package lint

// This file is the repository-specific rule configuration: which packages
// carry the byte-identical determinism contract, and what the package DAG
// is. cmd/simlint and the self-check test both build their rule set from
// RepoRules, so there is exactly one definition of the invariants.

// RepoModule is the module path the rules are configured for.
const RepoModule = "itbsim"

// repoDeterministic lists the packages whose outputs must be a pure
// function of (spec, seed): everything on the path from topology
// discovery to the aggregated Report. detrange and noclock apply here.
// Note mapper is included even though the original contract listed only
// the simulator core — Discover/Diff feed reconfiguration, so map-order
// or wall-clock leaks there corrupt faulted curves just as surely.
var repoDeterministic = map[string]bool{
	"itbsim/internal/netsim":   true,
	"itbsim/internal/updown":   true,
	"itbsim/internal/itbroute": true,
	"itbsim/internal/routes":   true,
	"itbsim/internal/optimize": true,
	"itbsim/internal/faults":   true,
	"itbsim/internal/runner":   true,
	"itbsim/internal/metrics":  true,
	"itbsim/internal/traffic":  true,
	"itbsim/internal/mapper":   true,
	"itbsim/internal/wire":     true,
}

// repoStats lists the packages that compute or aggregate floating-point
// statistics; floateq applies here.
var repoStats = map[string]bool{
	"itbsim/internal/netsim":      true,
	"itbsim/internal/metrics":     true,
	"itbsim/internal/stats":       true,
	"itbsim/internal/traffic":     true,
	"itbsim/internal/runner":      true,
	"itbsim/internal/experiments": true,
	"itbsim/internal/viz":         true,
}

// repoLayers is the package DAG, bottom (0) to top. An import is legal
// only when it points at a strictly lower layer. The table mirrors the
// architecture section of DESIGN.md and is documented in docs/LINT.md;
// adding a package without assigning it a layer is itself a finding.
var repoLayers = map[string]int{
	// Foundations: no internal imports. wire is the byte codec of the
	// checkpoint and of the metrics streaming state.
	"itbsim/internal/topology": 0,
	"itbsim/internal/wire":     0,
	"itbsim/internal/lint":     0,
	// Windowed telemetry (encoded with wire), and the routing substrate on
	// the raw graph.
	"itbsim/internal/metrics":  1,
	"itbsim/internal/updown":   1,
	"itbsim/internal/mapper":   1,
	"itbsim/internal/itbroute": 2,
	"itbsim/internal/routes":   3,
	// The rip-up/reroute table optimizer rewrites built tables; it sits
	// below faults so the reconfiguration controller can optimize degraded
	// tables, and below netsim so it can never reach back into the
	// simulator (criticality arrives as plain numbers, not a metrics dep).
	"itbsim/internal/optimize": 4,
	// Fault state + reconfiguration controller (rebuilds routes).
	"itbsim/internal/faults": 5,
	// The simulator core consumes routes, faults and metrics taps.
	"itbsim/internal/netsim": 6,
	// Workload generation and post-processing over the core.
	"itbsim/internal/traffic": 7,
	"itbsim/internal/stats":   7,
	"itbsim/internal/gm":      7,
	// Orchestration.
	"itbsim/internal/runner":      8,
	"itbsim/internal/viz":         8,
	"itbsim/internal/experiments": 9,
	"itbsim/internal/cli":         10,
	// The public facade re-exports the stack.
	"itbsim": 11,
}

// repoPrefixLayers puts every command and example at the top of the DAG.
var repoPrefixLayers = map[string]int{
	"itbsim/cmd/":      12,
	"itbsim/examples/": 12,
}

// repoDocumented lists the packages whose exported surface is treated as
// API documentation; doccomment applies here. The simulator core, the
// topology generators and the route builders are the packages external
// code (and the public facade) programs against.
var repoDocumented = map[string]bool{
	"itbsim/internal/netsim":   true,
	"itbsim/internal/topology": true,
	"itbsim/internal/routes":   true,
}

// RepoRules returns the shipped rule set configured for this repository.
// The interprocedural rules share one Program, so the module call graph
// is built once per lint run.
func RepoRules() []Rule {
	prog := &Program{}
	return []Rule{
		DetRange{Scope: repoDeterministic},
		NoClock{Scope: repoDeterministic},
		Taint{Scope: repoDeterministic, Prog: prog},
		Exhaustive{Module: RepoModule},
		SimDirectives{Prog: prog},
		Layering{Module: RepoModule, Layers: repoLayers, PrefixLayers: repoPrefixLayers},
		ErrCheckLite{Allow: DefaultErrCheckAllow},
		FloatEq{Scope: repoStats},
		DocComment{Scope: repoDocumented},
	}
}

// RepoLayerTable renders the DAG for docs output (cmd/simlint -layers).
func RepoLayerTable() string { return LayerTable(repoLayers) }
