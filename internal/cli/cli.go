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

// Scheme parses a routing scheme name.
func Scheme(name string) (routes.Scheme, error) { return routes.ParseScheme(name) }

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
	// CheckpointDir, CheckpointEvery and Resume are the crash-safe sweep
	// journal flags (see docs/CHECKPOINT.md).
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
// the identical surface in -h (TestCommonFlagsHelp pins the rendering). Tools that run their points
// directly rather than on the experiment runner still register the whole
// set and reject the runner flags they cannot honor, so a flag never
// silently changes meaning between tools.
type CommonFlags struct {
	*Common
	*Run
	*Profile
}

// AddCommonFlags registers the shared flag surface on a FlagSet.
func AddCommonFlags(fs *flag.FlagSet) *CommonFlags {
	return &CommonFlags{Common: AddCommon(fs), Run: AddRun(fs), Profile: AddProfile(fs)}
}

// Options assembles the harness run options from the shared flags,
// including -vcs.
func (cf *CommonFlags) Options() (experiments.RunOptions, error) {
	opt, err := cf.Run.Options()
	if err != nil {
		return opt, err
	}
	opt.VCs = *cf.VCs
	return opt, nil
}

// RejectRunnerFlags errors when a runner-execution flag was set on a tool
// that does not execute on the experiment runner. keepMetrics exempts
// -metrics for tools that honor it directly.
func (cf *CommonFlags) RejectRunnerFlags(tool string, keepMetrics bool) error {
	switch {
	case *cf.Parallel != 0:
		return fmt.Errorf("%s does not run on the experiment runner; -parallel is not supported", tool)
	case *cf.JSON:
		return fmt.Errorf("%s does not run on the experiment runner; -json is not supported", tool)
	case *cf.Progress:
		return fmt.Errorf("%s does not run on the experiment runner; -progress is not supported", tool)
	case *cf.Faults != "":
		return fmt.Errorf("%s does not support fault injection; -faults is not supported", tool)
	case *cf.Optimize:
		return fmt.Errorf("%s does not run on the experiment runner; -optimize is not supported", tool)
	case *cf.CheckpointDir != "":
		return fmt.Errorf("%s does not run on the experiment runner; -checkpoint-dir is not supported", tool)
	case *cf.CheckpointEvery != 0:
		return fmt.Errorf("%s does not run on the experiment runner; -checkpoint-every is not supported", tool)
	case *cf.Resume:
		return fmt.Errorf("%s does not run on the experiment runner; -resume is not supported", tool)
	case !keepMetrics && *cf.Run.Metrics != "":
		return fmt.Errorf("%s collects no windowed telemetry; -metrics is not supported", tool)
	}
	return nil
}

// Options assembles the harness run options from the flags. Setting
// -metrics turns the observability collector on for every point; -faults
// schedules failures on every point and enables online reconfiguration;
// -checkpoint-dir/-checkpoint-every/-resume drive the crash-safe journal.
func (r *Run) Options() (experiments.RunOptions, error) {
	opt := experiments.RunOptions{
		Parallel:        *r.Parallel,
		CheckpointDir:   *r.CheckpointDir,
		CheckpointEvery: *r.CheckpointEvery,
		Resume:          *r.Resume,
	}
	if *r.Progress {
		opt.Reporter = runner.NewLogReporter(os.Stderr)
	}
	if *r.Metrics != "" {
		opt.Metrics = &metrics.Config{}
	}
	if *r.Faults != "" {
		plan, err := faults.ParsePlan(*r.Faults)
		if err != nil {
			return opt, err
		}
		opt.Faults = plan
	}
	if *r.Optimize {
		strat, err := optimize.ParseStrategy(*r.OptimizeStrategy)
		if err != nil {
			return opt, err
		}
		opt.Optimize = &optimize.Config{Strategy: strat}
	} else if *r.OptimizeStrategy != "ripup" {
		return opt, fmt.Errorf("-optimize-strategy requires -optimize")
	}
	return opt, nil
}

// WriteMetrics exports a report's telemetry to the -metrics file (no-op
// when the flag was not given) and returns the path written, if any.
func (r *Run) WriteMetrics(rep *runner.Report) (string, error) {
	path := *r.Metrics
	if path == "" {
		return "", nil
	}
	if err := WriteMetricsFile(path, rep.MetricsPoints()); err != nil {
		return "", err
	}
	return path, nil
}

// WriteMetricsFile writes telemetry export points to path, dispatching on
// the extension (.csv for CSV, anything else JSON).
func WriteMetricsFile(path string, points []metrics.ExportPoint) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := metrics.WriteFile(f, path, points); err != nil {
		//lint:ignore errcheck-lite cleanup on the error path; the write error is what the caller needs
		_ = f.Close()
		return err
	}
	return f.Close()
}
