package cli

import (
	"bytes"
	"errors"
	"flag"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"itbsim/internal/experiments"
	"itbsim/internal/optimize"
	"itbsim/internal/routes"
	"itbsim/internal/runner"
	"itbsim/internal/topology"
)

func parse(t *testing.T, args ...string) *Common {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := AddCommon(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEnvDefaults(t *testing.T) {
	c := parse(t)
	env, err := c.Env()
	if err != nil {
		t.Fatal(err)
	}
	if env.Topo != "torus" || env.Net.Switches != 64 {
		t.Errorf("default env = %s with %d switches", env.Topo, env.Net.Switches)
	}
}

func TestEnvFlags(t *testing.T) {
	c := parse(t, "-topo", "cplant", "-scale", "small")
	env, err := c.Env()
	if err != nil {
		t.Fatal(err)
	}
	if env.Topo != "cplant" || env.Net.Switches != 50 {
		t.Errorf("env = %s with %d switches", env.Topo, env.Net.Switches)
	}
	c = parse(t, "-topo", "dragonfly", "-scale", "small")
	env, err = c.Env()
	if err != nil {
		t.Fatal(err)
	}
	if env.Topo != "dragonfly" || env.Net.Switches != 12 {
		t.Errorf("env = %s with %d switches", env.Topo, env.Net.Switches)
	}
}

func TestEnvErrors(t *testing.T) {
	if _, err := parse(t, "-scale", "gigantic").Env(); err == nil {
		t.Error("bad scale accepted")
	}
	if _, err := parse(t, "-topo", "donut").Env(); err == nil {
		t.Error("bad topology accepted")
	}
}

func TestPatternFlags(t *testing.T) {
	p, err := parse(t).Pattern()
	if err != nil || p.Kind != "uniform" {
		t.Errorf("default pattern = %v, %v", p, err)
	}
	p, err = parse(t, "-traffic", "hotspot", "-hotspot", "7", "-frac", "0.1").Pattern()
	if err != nil || p.HotspotHost != 7 || p.HotspotFraction != 0.1 {
		t.Errorf("hotspot pattern = %v, %v", p, err)
	}
	p, err = parse(t, "-traffic", "local", "-radius", "4").Pattern()
	if err != nil || p.LocalRadius != 4 {
		t.Errorf("local pattern = %v, %v", p, err)
	}
	if _, err := parse(t, "-traffic", "storm").Pattern(); err == nil {
		t.Error("bad traffic accepted")
	}
}

func TestScheme(t *testing.T) {
	got, err := Schemes("itb-rr, vc")
	if err != nil || len(got) != 2 || got[0] != routes.ITBRR || got[1] != routes.VC {
		t.Errorf("Schemes(\"itb-rr, vc\") = %v, %v", got, err)
	}
	for _, bad := range []string{"nope", "itb-rr,nope", ""} {
		if _, err := Schemes(bad); err == nil {
			t.Errorf("bad scheme list %q accepted", bad)
		}
	}
}

// TestLoads pins the -loads parser: one load per field, spaces around a
// field ignored, and an error naming the first field that is not a number.
// NaN, negative and infinite loads parse; the runner refuses them
// (TestNonFiniteLoadsRejected in internal/runner).
func TestLoads(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []float64
		bad  string // the field the error names, if the list is refused
	}{
		{in: "0.01", want: []float64{0.01}},
		{in: "0.002, 0.004 ,0.008", want: []float64{0.002, 0.004, 0.008}},
		{in: "1e-3,2E-3", want: []float64{0.001, 0.002}},
		{in: "-0.5,NaN,+Inf", want: []float64{-0.5, math.NaN(), math.Inf(1)}},
		{in: "", bad: `""`},
		{in: "0.01,", bad: `""`},
		{in: "0.01,,0.02", bad: `""`},
		{in: "0.01,x,0.02", bad: `"x"`},
		{in: "0.01;0.02", bad: `"0.01;0.02"`},
		{in: "0.01, 5%", bad: `" 5%"`},
	} {
		got, err := Loads(tc.in)
		if tc.bad != "" {
			if err == nil || !strings.Contains(err.Error(), tc.bad) {
				t.Errorf("Loads(%q) = %v, %v; want an error naming %s", tc.in, got, err, tc.bad)
			}
			continue
		}
		if err != nil || !slices.EqualFunc(got, tc.want, func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }) {
			t.Errorf("Loads(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := dir + "/cpu.pprof"
	mem := dir + "/mem.pprof"
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	p := AddProfile(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{cpu, mem} {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", f)
		}
	}
}

// commonHelp is the full -h rendering of the shared flag surface. Every
// simulation tool registers its common flags through AddCommonFlags, so
// this one golden string pins the help text users see across cmd/sweep,
// cmd/itbsim, cmd/hotspot and cmd/linkutil (tool-specific flags aside).
// flag.PrintDefaults sorts lexically, so the rendering is insensitive to
// registration order.
const commonHelp = "  -bytes int\n" +
	"    \tmessage payload size in bytes (default 512)\n" +
	"  -checkpoint-dir string\n" +
	"    \tkeep one crash-safe record per job in this directory, job-<N>.ckpt, holding its finished points and a periodic snapshot of the point in flight (see docs/CHECKPOINT.md)\n" +
	"  -checkpoint-every int\n" +
	"    \tmid-run snapshot period in simulated cycles (0 = 250000); requires -checkpoint-dir\n" +
	"  -cpuprofile string\n" +
	"    \twrite a CPU profile to this file\n" +
	"  -faults string\n" +
	"    \tinject faults mid-run: comma-separated link:ID@CYCLE / switch:ID@CYCLE events, + prefix repairs (see docs/FAULTS.md)\n" +
	"  -frac float\n" +
	"    \thotspot traffic: fraction of traffic to the hotspot (default 0.05)\n" +
	"  -hotspot int\n" +
	"    \thotspot traffic: hotspot host\n" +
	"  -json\n" +
	"    \temit the full report as JSON on stdout\n" +
	"  -memprofile string\n" +
	"    \twrite a heap profile to this file on exit\n" +
	"  -metrics string\n" +
	"    \tcollect windowed telemetry and write it to this file (.csv for CSV, anything else JSON; schema in docs/METRICS.md)\n" +
	"  -optimize\n" +
	"    \trewrite each curve's routing table around measured congestion before sweeping: a profiling pre-pass measures link utilization, then a rip-up/reroute pass reroutes the hot routes (see docs/OPTIMIZE.md)\n" +
	"  -optimize-strategy string\n" +
	"    \troute optimizer for -optimize: ripup (full rip-up/reroute) or escape (OutFlank-style alternative pruning) (default \"ripup\")\n" +
	"  -parallel int\n" +
	"    \tworker goroutines for independent curves (0 = GOMAXPROCS)\n" +
	"  -progress\n" +
	"    \tstream per-job progress to stderr\n" +
	"  -radius int\n" +
	"    \tlocal traffic: max switches to destination (default 3)\n" +
	"  -resume\n" +
	"    \tresume a killed sweep from -checkpoint-dir: finished jobs are read from their job-<N>.ckpt records, in-flight jobs restart from their snapshots\n" +
	"  -scale string\n" +
	"    \tscale: small, medium, or paper (512 hosts) (default \"medium\")\n" +
	"  -seed int\n" +
	"    \trandom seed (default 1)\n" +
	"  -topo string\n" +
	"    \ttopology: torus, express, cplant, irregular, dragonfly, hyperx, or fullmesh (default \"torus\")\n" +
	"  -traffic string\n" +
	"    \ttraffic: uniform, bitrev, hotspot, or local (default \"uniform\")\n" +
	"  -vcs int\n" +
	"    \tvirtual-channel lanes for the vc scheme (0 = scheme default; see docs/VC.md)\n"

func TestCommonFlagsHelp(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	AddCommonFlags(fs)
	fs.PrintDefaults()
	if got := buf.String(); got != commonHelp {
		t.Errorf("shared -h output drifted:\ngot:\n%s\nwant:\n%s", got, commonHelp)
	}
}

func TestCommonFlagsOptionsThreadVCs(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	cf := AddCommonFlags(fs)
	if err := fs.Parse([]string{"-parallel", "2", "-vcs", "4"}); err != nil {
		t.Fatal(err)
	}
	spec, err := cf.Options()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Parallel != 2 || spec.RouteConfig(routes.VC).VCs != 4 {
		t.Errorf("Options() = Parallel %d, VC lanes %d, want 2/4", spec.Parallel, spec.RouteConfig(routes.VC).VCs)
	}
	if got, want := spec.RouteConfig(routes.ITBRR), routes.DefaultConfig(routes.ITBRR); got != want {
		t.Errorf("-vcs changed the ITB-RR route config: %+v, want %+v", got, want)
	}
}

func TestCommonFlagsOptionsThreadCheckpointing(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	cf := AddCommonFlags(fs)
	if err := fs.Parse([]string{"-checkpoint-dir", "ckpt", "-checkpoint-every", "5000", "-resume"}); err != nil {
		t.Fatal(err)
	}
	spec, err := cf.Options()
	if err != nil {
		t.Fatal(err)
	}
	if spec.CheckpointDir != "ckpt" || spec.CheckpointEvery != 5000 || !spec.Resume {
		t.Errorf("Options() = dir %q every %d resume %v, want ckpt/5000/true",
			spec.CheckpointDir, spec.CheckpointEvery, spec.Resume)
	}
}

func TestOptimizeFlags(t *testing.T) {
	options := func(t *testing.T, args ...string) (runner.Spec, error) {
		t.Helper()
		fs := flag.NewFlagSet("tool", flag.ContinueOnError)
		cf := AddCommonFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return cf.Options()
	}
	opt, err := options(t)
	if err != nil || opt.Optimize != nil {
		t.Errorf("default Options().Optimize = %v, %v, want nil", opt.Optimize, err)
	}
	opt, err = options(t, "-optimize")
	if err != nil || opt.Optimize == nil || opt.Optimize.Strategy != optimize.RipUpReroute {
		t.Errorf("-optimize Options() = %+v, %v, want RipUpReroute config", opt.Optimize, err)
	}
	opt, err = options(t, "-optimize", "-optimize-strategy", "escape")
	if err != nil || opt.Optimize == nil || opt.Optimize.Strategy != optimize.EscapePrune {
		t.Errorf("-optimize-strategy escape Options() = %+v, %v, want EscapePrune config", opt.Optimize, err)
	}
	if _, err = options(t, "-optimize", "-optimize-strategy", "annealing"); err == nil {
		t.Error("unknown -optimize-strategy accepted")
	}
	if _, err = options(t, "-optimize-strategy", "escape"); err == nil {
		t.Error("-optimize-strategy without -optimize accepted")
	}
}

// TestVCWithFaultsMessage pins the error a user sees when asking a tool
// for the VC scheme and fault injection together (e.g. `sweep -schemes
// itb-rr,vc -faults link:1@100`): a typed ConfigError naming the offending
// field, surfaced before any simulation starts.
func TestVCWithFaultsMessage(t *testing.T) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	cf := AddCommonFlags(fs)
	if err := fs.Parse([]string{"-scale", "small", "-faults", "link:1@100"}); err != nil {
		t.Fatal(err)
	}
	env, err := cf.Env()
	if err != nil {
		t.Fatal(err)
	}
	pat, err := cf.Pattern()
	if err != nil {
		t.Fatal(err)
	}
	base, err := cf.Options()
	if err != nil {
		t.Fatal(err)
	}
	schemes, err := Schemes("itb-rr,vc")
	if err != nil {
		t.Fatal(err)
	}
	spec := experiments.SpecFor(env, schemes, []experiments.Pattern{pat},
		[]float64{0.01}, *cf.Bytes, *cf.Seed, base)
	_, err = runner.Run(spec)
	if err == nil {
		t.Fatal("VC scheme with -faults accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "invalid Schemes VC") || !strings.Contains(msg, "Faults") {
		t.Errorf("user-facing message does not name the offending field and the fault plan: %q", msg)
	}
	var ce *topology.ConfigError
	if !errors.As(err, &ce) {
		t.Errorf("CLI-surfaced error is %T, want *topology.ConfigError", err)
	}
}

func TestProfileFlagsOffAreNoops(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	p := AddProfile(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
