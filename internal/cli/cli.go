// Package cli holds the flag plumbing shared by the command-line tools in
// cmd/: topology/scale/scheme/traffic selection mapped onto the experiment
// harness.
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"itbsim/internal/experiments"
	"itbsim/internal/faults"
	"itbsim/internal/metrics"
	"itbsim/internal/optimize"
	"itbsim/internal/routes"
	"itbsim/internal/runner"
)

// Common are the flags every tool accepts.
type Common struct {
	Topo    *string
	Scale   *string
	Traffic *string
	Bytes   *int
	Seed    *int64
	Radius  *int
	Hotspot *int
	Frac    *float64
	VCs     *int
}

// AddCommon registers the shared flags on a FlagSet.
func AddCommon(fs *flag.FlagSet) *Common {
	return &Common{
		Topo:    fs.String("topo", "torus", "topology: torus, express, cplant, irregular, dragonfly, hyperx, or fullmesh"),
		Scale:   fs.String("scale", "medium", "scale: small, medium, or paper (512 hosts)"),
		Traffic: fs.String("traffic", "uniform", "traffic: uniform, bitrev, hotspot, or local"),
		Bytes:   fs.Int("bytes", 512, "message payload size in bytes"),
		Seed:    fs.Int64("seed", 1, "random seed"),
		Radius:  fs.Int("radius", 3, "local traffic: max switches to destination"),
		Hotspot: fs.Int("hotspot", 0, "hotspot traffic: hotspot host"),
		Frac:    fs.Float64("frac", 0.05, "hotspot traffic: fraction of traffic to the hotspot"),
		VCs:     fs.Int("vcs", 0, "virtual-channel lanes for the vc scheme (0 = scheme default; see docs/VC.md)"),
	}
}

// Env builds the experiment environment from the flags.
func (c *Common) Env() (*experiments.Env, error) {
	scale, err := experiments.ParseScale(*c.Scale)
	if err != nil {
		return nil, err
	}
	return experiments.NewEnv(*c.Topo, scale)
}

// Pattern builds the traffic pattern from the flags.
func (c *Common) Pattern() (experiments.Pattern, error) {
	switch *c.Traffic {
	case "uniform", "bitrev":
		return experiments.Pattern{Kind: *c.Traffic}, nil
	case "hotspot":
		return experiments.Pattern{Kind: "hotspot", HotspotHost: *c.Hotspot, HotspotFraction: *c.Frac}, nil
	case "local":
		return experiments.Pattern{Kind: "local", LocalRadius: *c.Radius}, nil
	}
	return experiments.Pattern{}, fmt.Errorf("unknown traffic %q", *c.Traffic)
}

// Schemes parses a comma-separated list of routing scheme names.
func Schemes(names string) ([]routes.Scheme, error) {
	var out []routes.Scheme
	for _, name := range strings.Split(names, ",") {
		s, err := routes.ParseScheme(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty scheme list")
	}
	return out, nil
}

// Loads parses a comma-separated list of injection rates, one load per
// field. A field that is not a number is an error that names it. The values
// are the runner's to check: it refuses a NaN, negative, infinite or
// descending grid with a *topology.ConfigError.
func Loads(list string) ([]float64, error) {
	var loads []float64
	for _, f := range strings.Split(list, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad load %q: %v", f, err)
		}
		loads = append(loads, v)
	}
	return loads, nil
}

// Profile are the pprof flags every tool accepts: -cpuprofile and
// -memprofile write standard runtime/pprof files for `go tool pprof`. See
// EXPERIMENTS.md for the profiling recipe.
type Profile struct {
	CPU *string
	Mem *string
}

// AddProfile registers the profiling flags on a FlagSet.
func AddProfile(fs *flag.FlagSet) *Profile {
	return &Profile{
		CPU: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		Mem: fs.String("memprofile", "", "write a heap profile to this file on exit"),
	}
}

// Start begins CPU profiling if -cpuprofile was given. The returned stop
// function (never nil) finishes the CPU profile and writes the heap
// profile of -memprofile; defer it right after flag parsing. Error exits
// through log.Fatal skip the defer and simply leave no profile behind.
func (p *Profile) Start() (stop func() error, err error) {
	var cpuFile *os.File
	if *p.CPU != "" {
		cpuFile, err = os.Create(*p.CPU)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			//lint:ignore errcheck-lite cleanup on the error path; the StartCPUProfile error is what the caller needs
			_ = cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if *p.Mem != "" {
			f, err := os.Create(*p.Mem)
			if err != nil {
				return err
			}
			runtime.GC() // up-to-date allocation data
			if err := pprof.WriteHeapProfile(f); err != nil {
				//lint:ignore errcheck-lite cleanup on the error path; the WriteHeapProfile error is what the caller needs
				_ = f.Close()
				return err
			}
			return f.Close()
		}
		return nil
	}, nil
}

// Run are the flags of the tools that execute on the experiment runner.
type Run struct {
	Parallel *int
	JSON     *bool
	Progress *bool
	Metrics  *string
	Faults   *string
	// Optimize and OptimizeStrategy enable the congestion-aware route
	// optimizer on every curve (see docs/OPTIMIZE.md).
	Optimize         *bool
	OptimizeStrategy *string
	// CheckpointDir, CheckpointEvery and Resume are the crash-safe
	// per-job record flags (see docs/CHECKPOINT.md).
	CheckpointDir   *string
	CheckpointEvery *int64
	Resume          *bool
}

// AddRun registers the runner flags on a FlagSet.
func AddRun(fs *flag.FlagSet) *Run {
	return &Run{
		Parallel: fs.Int("parallel", 0, "worker goroutines for independent curves (0 = GOMAXPROCS)"),
		JSON:     fs.Bool("json", false, "emit the full report as JSON on stdout"),
		Progress: fs.Bool("progress", false, "stream per-job progress to stderr"),
		Metrics: fs.String("metrics", "",
			"collect windowed telemetry and write it to this file (.csv for CSV, anything else JSON; schema in docs/METRICS.md)"),
		Faults: fs.String("faults", "",
			"inject faults mid-run: comma-separated link:ID@CYCLE / switch:ID@CYCLE events, + prefix repairs (see docs/FAULTS.md)"),
		Optimize: fs.Bool("optimize", false,
			"rewrite each curve's routing table around measured congestion before sweeping: a profiling pre-pass measures link utilization, then a rip-up/reroute pass reroutes the hot routes (see docs/OPTIMIZE.md)"),
		OptimizeStrategy: fs.String("optimize-strategy", "ripup",
			"route optimizer for -optimize: ripup (full rip-up/reroute) or escape (OutFlank-style alternative pruning)"),
		CheckpointDir: fs.String("checkpoint-dir", "",
			"journal finished jobs and periodic mid-run snapshots to this directory, making the sweep crash-safe (see docs/CHECKPOINT.md)"),
		CheckpointEvery: fs.Int64("checkpoint-every", 0,
			"mid-run snapshot period in simulated cycles (0 = 250000); requires -checkpoint-dir"),
		Resume: fs.Bool("resume", false,
			"resume a killed sweep from -checkpoint-dir: journaled jobs are reused, in-flight jobs restart from their snapshots"),
	}
}

// CommonFlags is the full shared flag surface of the simulation tools:
// topology/scale/traffic selection (Common), runner execution (Run), and
// profiling (Profile), registered by one builder so every tool presents
// the identical surface in -h (TestCommonFlagsHelp pins the rendering).
// Every tool that registers it simulates through the experiment runner,
// so each flag means the same thing in every tool.
type CommonFlags struct {
	*Common
	*Run
	*Profile
}

// AddCommonFlags registers the shared flag surface on a FlagSet.
func AddCommonFlags(fs *flag.FlagSet) *CommonFlags {
	return &CommonFlags{Common: AddCommon(fs), Run: AddRun(fs), Profile: AddProfile(fs)}
}

// Options assembles the base runner spec from the shared flags: how to
// run, which experiments.SpecFor completes with what to run. Setting
// -metrics turns the observability collector on for every point; -faults
// schedules failures on every point and enables online reconfiguration;
// -checkpoint-dir/-checkpoint-every/-resume drive the crash-safe records;
// and -vcs sets the VC scheme's lane count in the route configuration.
func (cf *CommonFlags) Options() (runner.Spec, error) {
	vcs := *cf.VCs
	spec := runner.Spec{
		Parallel:        *cf.Parallel,
		CheckpointDir:   *cf.CheckpointDir,
		CheckpointEvery: *cf.CheckpointEvery,
		Resume:          *cf.Resume,
		RouteConfig: func(s routes.Scheme) routes.Config {
			return routeConfigFor(s, vcs)
		},
	}
	if *cf.Progress {
		spec.Reporter = runner.NewLogReporter(os.Stderr)
	}
	if *cf.Run.Metrics != "" {
		spec.Metrics = &metrics.Config{}
	}
	if *cf.Faults != "" {
		plan, err := faults.ParsePlan(*cf.Faults)
		if err != nil {
			return spec, err
		}
		spec.Faults = plan
	}
	if *cf.Optimize {
		strat, err := optimize.ParseStrategy(*cf.OptimizeStrategy)
		if err != nil {
			return spec, err
		}
		spec.Optimize = &optimize.Config{Strategy: strat}
	} else if *cf.OptimizeStrategy != "ripup" {
		return spec, fmt.Errorf("-optimize-strategy requires -optimize")
	}
	return spec, nil
}

// routeConfigFor maps a scheme to its table-construction config, applying
// the VC lane-count override (0 keeps the scheme default); other schemes
// ignore it.
func routeConfigFor(scheme routes.Scheme, vcs int) routes.Config {
	cfg := routes.DefaultConfig(scheme)
	if vcs > 0 && scheme == routes.VC {
		cfg.VCs = vcs
	}
	return cfg
}

// WriteMetrics exports a report's telemetry to the -metrics file (no-op
// when the flag was not given) and returns the path written, if any. The
// extension picks the format: .csv for CSV, anything else JSON.
func (r *Run) WriteMetrics(rep *runner.Report) (string, error) {
	path := *r.Metrics
	if path == "" {
		return "", nil
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := metrics.WriteFile(f, path, rep.MetricsPoints()); err != nil {
		//lint:ignore errcheck-lite cleanup on the error path; the write error is what the caller needs
		_ = f.Close()
		return "", err
	}
	return path, f.Close()
}
