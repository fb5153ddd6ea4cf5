package netsim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"itbsim/internal/faults"
	"itbsim/internal/metrics"
	"itbsim/internal/routes"
	"itbsim/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/results.golden")

// matrixNets builds the three topology families the result matrix covers:
// the paper's torus, an express torus (skip channels), and the irregular
// CPLANT fabric.
func matrixNets(t *testing.T) []*topology.Network {
	t.Helper()
	torus := makeNet(t, 8, 8, 2)
	express, err := topology.NewExpressTorus(4, 4, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	cplant, err := topology.NewCplant(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	return []*topology.Network{torus, express, cplant}
}

// matrixConfig is a run that exercises every subsystem of the cycle loop:
// wormhole contention, ITB re-injection, windowed metrics and histograms,
// and (optionally) kills, retries, and reconfiguration.
func matrixConfig(t testing.TB, net *topology.Network, sch routes.Scheme, faulted bool) Config {
	t.Helper()
	tab := makeTable(t, net, sch)
	cfg := baseConfig(net, tab)
	cfg.Load = 0.008
	cfg.WarmupMessages = 50
	cfg.MeasureMessages = 200
	cfg.CollectLinkUtil = true
	cfg.Metrics = &metrics.Config{WindowCycles: 4096}
	if faulted {
		cfg.Faults = (&faults.Plan{}).
			FailLinkAt(busiestLink(tab, net), 40_000).
			RepairLinkAt(busiestLink(tab, net), 160_000)
		cfg.Reconfigurer = faults.NewController(net, 0, routes.DefaultConfig(sch))
		cfg.Load = 0.02
	}
	return cfg
}

// stormConfig keeps faults firing through the whole run on the 4×4 torus:
// a link and a switch fail and are repaired inside the measurement, so
// packets die by every drop reason (dead outputs found while routing
// included), retries fire, and four table swaps land. matrixConfig's
// faulted runs mostly finish before their fault.
func stormConfig(t testing.TB, sch routes.Scheme) Config {
	t.Helper()
	net := makeNet(t, 4, 4, 2)
	tab := makeTable(t, net, sch)
	cfg := baseConfig(net, tab)
	cfg.Load = 0.03
	cfg.CollectLinkUtil = true
	cfg.Metrics = &metrics.Config{WindowCycles: 4096}
	cfg.Faults = (&faults.Plan{}).
		FailLinkAt(busiestLink(tab, net), 5_000).
		FailSwitchAt(5, 20_000).
		RepairLinkAt(busiestLink(tab, net), 35_000).
		RepairSwitchAt(5, 45_000)
	cfg.Reconfigurer = faults.NewController(net, 0, routes.DefaultConfig(sch))
	return cfg
}

// selectorConfig is a 4×4 ITB-RR run with a path selector installed on its
// table: the healthy matrix run, or the fault storm, whose table swaps
// each hand the run a fresh clone of the selector.
func selectorConfig(t testing.TB, sel routes.Selector, faulted bool) Config {
	t.Helper()
	cfg := matrixConfig(t, makeNet(t, 4, 4, 2), routes.ITBRR, false)
	if faulted {
		cfg = stormConfig(t, routes.ITBRR)
	}
	cfg.Table.SetSelector(sel)
	return cfg
}

// newSelector builds, by name, each path-selection policy the selector
// cases cover.
var newSelector = map[string]func() routes.Selector{
	"adaptive":   func() routes.Selector { return routes.NewAdaptiveSelector(routes.DefaultAdaptiveConfig()) },
	"fewest-itb": routes.NewFewestITBSelector,
	"random":     func() routes.Selector { return routes.NewRandomSelector(7) },
}

// stepLoops names the two step loops every golden case runs under; apply
// mutates a config into that loop.
var stepLoops = []struct {
	name  string
	apply func(*Config)
}{
	{"dense", func(c *Config) { c.denseStep = true }},
	{"active-set", func(c *Config) {}},
}

// valueDigest hashes every field reachable from v — unexported fields
// included, pointers followed, nil distinguished from empty — so any
// difference reflect.DeepEqual can see changes the digest. Floats hash by
// their bit patterns. Kinds the walk cannot hash canonically (maps,
// interfaces, functions, channels) fail the test instead of being skipped;
// Result holds none today. Result is acyclic, so the walk needs no cycle
// guard.
func valueDigest(t *testing.T, v any) string {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	word := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Bool:
			if v.Bool() {
				word(1)
			} else {
				word(0)
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			word(uint64(v.Int()))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			word(v.Uint())
		case reflect.Float32, reflect.Float64:
			word(math.Float64bits(v.Float()))
		case reflect.String:
			word(uint64(v.Len()))
			h.Write([]byte(v.String()))
		case reflect.Slice:
			if v.IsNil() {
				word(0)
				return
			}
			word(1)
			fallthrough
		case reflect.Array:
			word(uint64(v.Len()))
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Pointer:
			if v.IsNil() {
				word(0)
				return
			}
			word(1)
			walk(v.Elem())
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		default:
			t.Fatalf("valueDigest: cannot hash %s of kind %s", v.Type(), v.Kind())
		}
	}
	walk(reflect.ValueOf(v))
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// bytesDigest is valueDigest's counterpart for raw bytes.
func bytesDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// enqueueDrain hand-places traffic with Enqueue and drains it, the path
// internal/gm relies on.
func enqueueDrain(t *testing.T, loop func(*Config)) (*Sim, *Result) {
	t.Helper()
	net := makeNet(t, 4, 4, 2)
	cfg := baseConfig(net, makeTable(t, net, routes.UpDown))
	cfg.Load = 0
	cfg.Metrics = &metrics.Config{WindowCycles: 512}
	loop(&cfg)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	H := net.NumHosts()
	for i := 0; i < 3*H; i++ {
		src := i % H
		if _, err := s.Enqueue(src, (src+5)%H, 256); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.RunUntilDrained()
	if err != nil {
		t.Fatal(err)
	}
	return s, res
}

// goldenResults renders one line per pinned case: the case name and the
// digest of its Result (or, for the snapshot cases, of the checkpoint
// bytes). Every case runs under both step loops. Beside each active-set
// Result line, a work line pins the work counters of that run, which no
// Result field shows: a change to how senders commit or settle that moves
// the same flits with more visits changes it. filtered reports that a
// subtest filter (-run or -skip) left at least one case out.
func goldenResults(t *testing.T) (lines []byte, filtered bool) {
	var b bytes.Buffer
	run := func(name string, f func(t *testing.T)) {
		ran := false
		t.Run(name, func(t *testing.T) {
			ran = true
			f(t)
		})
		filtered = filtered || !ran
	}
	result := func(name, loop string, s *Sim, res *Result) {
		fmt.Fprintf(&b, "%s/%s %s\n", name, loop, valueDigest(t, res))
		if loop == "active-set" {
			fmt.Fprintf(&b, "%s/%s/work outVisits=%d outFlits=%d nicVisits=%d nicFlits=%d rxVisits=%d rxFlits=%d\n",
				name, loop, s.outVisits, s.outFlits, s.nicVisits, s.nicFlits, s.rxVisits, s.rxFlits)
		}
	}
	// runCase pins one case; each check, when given, must pass on the
	// Result of both loops.
	runCase := func(name string, mk func(t *testing.T) Config, checks ...func(*Result) error) {
		run(name, func(t *testing.T) {
			for _, loop := range stepLoops {
				cfg := mk(t)
				loop.apply(&cfg)
				s, err := New(cfg)
				if err != nil {
					t.Fatalf("%s: %v", loop.name, err)
				}
				res, err := s.Run()
				if err != nil {
					t.Fatalf("%s: %v", loop.name, err)
				}
				for _, check := range checks {
					if err := check(res); err != nil {
						t.Fatalf("%s: %v", loop.name, err)
					}
				}
				result(name, loop.name, s, res)
			}
		})
	}
	for _, net := range matrixNets(t) {
		for _, sch := range []routes.Scheme{routes.UpDown, routes.ITBSP, routes.ITBRR} {
			for _, faulted := range []bool{false, true} {
				name := net.Name + "/" + sch.String()
				if faulted {
					name += "/faulted"
				}
				runCase(name, func(t *testing.T) Config { return matrixConfig(t, net, sch, faulted) })
			}
		}
	}
	for _, sch := range []routes.Scheme{routes.UpDown, routes.ITBSP, routes.ITBRR} {
		runCase("torus-4x4/"+sch.String()+"/fault-storm", func(t *testing.T) Config { return stormConfig(t, sch) })
	}
	df, err := topology.NewDragonfly(4, 3, 1, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	runCase(df.Name+"/VC2", func(t *testing.T) Config { return vcConfig(t, df, 2) })

	run("enqueue-drain", func(t *testing.T) {
		for _, loop := range stepLoops {
			s, res := enqueueDrain(t, loop.apply)
			result("enqueue-drain", loop.name, s, res)
		}
	})

	// Mid-run snapshots: the checkpoint bytes pin the codec's view of the
	// cycle loop's state (generation timers, the retry heap's array order,
	// latency tallies) and not just the final Result. Every pinned snapshot
	// must also resume to the Result of the run that wrote it: all of them
	// under the active-set loop, and the middle one of the active-set run
	// under the dense loop too (the dense loop is too slow to resume all).
	// Under the race detector only the middle snapshot of each run resumes:
	// resuming them all adds about two minutes on a 2-vCPU host, which takes
	// the package to go test's ten-minute timeout.
	snapshots := func(name string, every int64, mk func(t *testing.T) Config) {
		run("snapshot/"+name, func(t *testing.T) {
			for _, loop := range stepLoops {
				cfg := mk(t)
				loop.apply(&cfg)
				res, snaps := runCheckpointed(t, cfg, every)
				for i, snap := range snaps {
					cycle := int64(i+1) * every
					fmt.Fprintf(&b, "snapshot/%s/%s/cycle-%d %s\n", name, loop.name, cycle, bytesDigest(snap))
					mid := i == len(snaps)/2
					if raceEnabled && !mid {
						continue
					}
					for _, rl := range stepLoops {
						if rl.name == "dense" && (loop.name == "dense" || !mid) {
							continue
						}
						rcfg := mk(t)
						rl.apply(&rcfg)
						got, err := ResumeContext(context.Background(), rcfg, snap)
						if err != nil {
							t.Fatalf("%s snapshot at cycle %d, %s resume: %v", loop.name, cycle, rl.name, err)
						}
						if !reflect.DeepEqual(res, got) {
							t.Errorf("%s snapshot at cycle %d, %s resume: Result differs from the run that wrote it", loop.name, cycle, rl.name)
						}
					}
				}
			}
		})
	}
	torus := matrixNets(t)[0]
	snapshots(torus.Name+"/ITB-RR/faulted", 5_000, func(t *testing.T) Config {
		return matrixConfig(t, torus, routes.ITBRR, true)
	})
	snapshots("torus-4x4/ITB-RR/fault-storm", 10_000, func(t *testing.T) Config { return stormConfig(t, routes.ITBRR) })
	// The VC dragonfly covers lane FIFOs, credits, per-lane requests and
	// connections, per-lane reception and the collector's VC series, all
	// without a fault engine; the healthy UP/DOWN torus runs without a
	// metrics collector.
	snapshots(df.Name+"/VC2", 40_000, func(t *testing.T) Config { return vcConfig(t, df, 2) })
	snapshots(torus.Name+"/UP/DOWN/no-metrics", 10_000, func(t *testing.T) Config {
		cfg := matrixConfig(t, torus, routes.UpDown, false)
		cfg.Metrics = nil
		return cfg
	})

	// Path-selection policies on the 4×4 ITB-RR torus, the adaptive one
	// learning from the latency of every measured delivery; then the
	// adaptive and random ones through the fault storm's table swaps, and
	// mid-run snapshots of the adaptive storm run.
	for _, sel := range []string{"adaptive", "fewest-itb", "random"} {
		runCase("torus-4x4/ITB-RR/"+sel, func(t *testing.T) Config { return selectorConfig(t, newSelector[sel](), false) })
	}
	for _, sel := range []string{"adaptive", "random"} {
		runCase("torus-4x4/ITB-RR/"+sel+"/fault-storm", func(t *testing.T) Config {
			return selectorConfig(t, newSelector[sel](), true)
		})
	}
	snapshots("torus-4x4/ITB-RR/adaptive/fault-storm", 20_000, func(t *testing.T) Config {
		return selectorConfig(t, newSelector["adaptive"](), true)
	})

	// Far past saturation: source queues stay full and links sit stopped,
	// so the backpressure and stop & go idle counters (and their values in
	// mid-run snapshots) are pinned. A run that records neither pins
	// nothing, so the case fails then.
	run("backpressure", func(t *testing.T) {
		const name = "torus-4x4/UP/DOWN/backpressure"
		for _, loop := range stepLoops {
			cfg := backpressureConfig(t)
			loop.apply(&cfg)
			s, err := New(cfg)
			if err != nil {
				t.Fatalf("%s: %v", loop.name, err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatalf("%s: %v", loop.name, err)
			}
			if bp, stopped := stallTotals(res); bp == 0 || stopped == 0 {
				t.Fatalf("%s: backpressure cycles %d, stopped-link fraction sum %g; the case pins no stall", loop.name, bp, stopped)
			}
			result(name, loop.name, s, res)
		}
	})
	snapshots("torus-4x4/UP/DOWN/backpressure", 2_000, func(t *testing.T) Config { return backpressureConfig(t) })

	// Cable regimes on the 4×4 ITB-RR torus, each with mid-run snapshots
	// every 2,000 cycles: short messages at a higher load (several packets
	// in one slack buffer, in-transit packets shorter than the ITB
	// detection delay),
	// gapped source injection, flights that are not a power of two, stop &
	// go thresholds close together, and re-injections that wait for their
	// reception.
	for _, rc := range cableRegimes {
		name := "torus-4x4/ITB-RR/" + rc.name
		mk := func(t *testing.T) Config { return regimeConfig(t, rc.apply) }
		runCase(name, mk)
		snapshots(name, 2_000, mk)
	}

	// Virtual-channel regimes, each with mid-run snapshots: the 4×4 torus
	// on one lane (credits on a single lane, the shape stop & go takes)
	// and on three, and the dragonfly's two lanes past saturation and with
	// lane buffers below the 18-flit credit round trip. Links sitting idle
	// on exhausted credits must show in the last two, or they pin no credit
	// stall.
	vcTorus := vcNets(t)[1]
	for _, vcs := range []int{1, 3} {
		name := fmt.Sprintf("%s/VC%d", vcTorus.Name, vcs)
		mk := func(t *testing.T) Config { return vcConfig(t, vcTorus, vcs) }
		runCase(name, mk)
		snapshots(name, 40_000, mk)
	}
	creditStalls := func(res *Result) error {
		if _, stopped := stallTotals(res); stopped == 0 {
			return fmt.Errorf("no link idle on exhausted credits; the case pins no credit stall")
		}
		return nil
	}
	for _, vr := range vcRegimes {
		name := df.Name + "/VC2/" + vr.name
		mk := func(t *testing.T) Config {
			cfg := vcConfig(t, df, 2)
			vr.apply(&cfg)
			return cfg
		}
		runCase(name, mk, creditStalls)
		snapshots(name, 10_000, mk)
	}

	// Windows and snapshots off every power of two: metrics samples,
	// checkpoints and the opening of the measurement window land at every
	// offset of a stop & go output's one-flight streaming run. The paper
	// fabric at ITB-RR's knee is where outputs stream longest.
	oddWindows := func(t *testing.T) Config {
		return regimeConfig(t, func(c *Config) { c.Metrics = &metrics.Config{WindowCycles: 1001} })
	}
	runCase("torus-4x4/ITB-RR/odd-windows", oddWindows)
	snapshots("torus-4x4/ITB-RR/odd-windows", 1001, oddWindows)
	knee := func(t *testing.T) Config {
		net := makeNet(t, 8, 8, 8)
		cfg := baseConfig(net, makeTable(t, net, routes.ITBRR))
		cfg.Load = 0.024
		cfg.WarmupMessages = 100
		cfg.MeasureMessages = 300
		cfg.CollectLinkUtil = true
		cfg.Metrics = &metrics.Config{WindowCycles: 1001}
		return cfg
	}
	runCase("torus-8x8-h8/ITB-RR/knee", knee)
	snapshots("torus-8x8-h8/ITB-RR/knee", 2003, knee)

	// Credit links streaming with stalls: the 4×4 torus on two lanes with
	// metrics windows and snapshots every 1,001 cycles, and with flights
	// of 5 and 11 cycles, so samples, checkpoints and the opening of the
	// measurement window land at every offset of a credit link's one-flight
	// streaming run.
	for _, tr := range torusVCRegimes {
		name := vcTorus.Name + "/VC2/" + tr.name
		mk := func(t *testing.T) Config {
			cfg := vcConfig(t, vcTorus, 2)
			cfg.Load = 0.02
			cfg.Params = DefaultParams()
			tr.apply(&cfg)
			return cfg
		}
		runCase(name, mk, creditStalls)
		snapshots(name, tr.every, mk)
	}
	return b.Bytes(), filtered
}

// torusVCRegimes are the 4×4 torus's two-lane regimes the credit-link
// cases pin, each with the cycles between its snapshots.
var torusVCRegimes = []struct {
	name  string
	every int64
	apply func(*Config)
}{
	{"odd-windows", 1001, func(c *Config) { c.Metrics = &metrics.Config{WindowCycles: 1001} }},
	{"flight5", 2000, func(c *Config) { c.Params.LinkFlightCycles = 5 }},
	{"flight11", 2000, func(c *Config) { c.Params.LinkFlightCycles = 11 }},
}

// vcRegimes are the dragonfly's credit-stall regimes the VC cases pin:
// TestVCSaturation's load far past saturation, and a moderate load on
// lane buffers shallower than the credit round trip.
var vcRegimes = []struct {
	name  string
	apply func(*Config)
}{
	{"saturated", func(c *Config) {
		c.Load = 0.15
		c.MeasureMessages = 300
	}},
	{"shallow-buffers", func(c *Config) {
		c.Load = 0.05
		c.Params = DefaultParams()
		c.Params.VCBufFlits = 12
	}},
}

// cableRegimes are the parameter regimes the cable cases pin.
var cableRegimes = []struct {
	name  string
	apply func(*Config)
}{
	{"msg32", func(c *Config) {
		c.MessageBytes = 32
		c.Load = 0.06
		c.MeasureMessages = 3000
	}},
	{"bubble16", func(c *Config) { c.Params.SourceBubblePeriod = 16 }},
	{"flight5", func(c *Config) { c.Params.LinkFlightCycles = 5 }},
	{"flight11", func(c *Config) { c.Params.LinkFlightCycles = 11 }},
	{"tight-stop-go", func(c *Config) {
		c.Params.GoThreshold = 8
		c.Params.StopThreshold = 12
		c.Params.SlackBufferFlits = 12 + 2*c.Params.LinkFlightCycles
	}},
	{"reinject-waits", reinjectWaits},
}

// reinjectWaits detects in-transit packets after two flits and programs
// their re-injection at once, while source bubbles space out the flits an
// in-transit host receives: re-injections catch up with their reception
// and wait for its next flit.
func reinjectWaits(c *Config) {
	c.Params.ITBDetectFlits = 2
	c.Params.ITBDMAFlits = 0
	c.Params.SourceBubblePeriod = 4
}

// regimeConfig is the 4×4 ITB-RR torus at a load with contention and
// stop & go activity, with the default parameters changed by apply.
func regimeConfig(t testing.TB, apply func(*Config)) Config {
	t.Helper()
	cfg := matrixConfig(t, makeNet(t, 4, 4, 2), routes.ITBRR, false)
	cfg.Load = 0.02
	cfg.Params = DefaultParams()
	apply(&cfg)
	return cfg
}

// TestResultGolden pins the simulator's behaviour bit for bit: the
// digest of every field of the Result (metrics series, latency histograms,
// drop and reconfiguration accounting included) for a matrix of
// topologies, schemes, fault modes and step loops, plus the bytes of
// mid-run checkpoints, each of which must resume to the Result of the run
// that wrote it. The simulator core may get faster or simpler, but a
// changed line here is a change in simulated behaviour. Regenerate with:
// go test ./internal/netsim -run ResultGolden -update
func TestResultGolden(t *testing.T) {
	got, filtered := goldenResults(t)
	if t.Failed() {
		return
	}
	path := filepath.Join("testdata", "results.golden")
	if *updateGolden {
		if filtered {
			t.Fatal("-update under a subtest filter would drop the lines of the cases it skipped; run TestResultGolden unfiltered")
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	// Each produced line is compared with the golden line of the same
	// name, its first field, so a filtered run checks the cases it ran.
	// An unfiltered run must reproduce the whole file.
	byName := func(text []byte) (names []string, lines map[string][]byte) {
		lines = map[string][]byte{}
		for _, l := range bytes.Split(text, []byte("\n")) {
			if len(l) > 0 {
				name, _, _ := bytes.Cut(l, []byte(" "))
				names = append(names, string(name))
				lines[string(name)] = l
			}
		}
		return names, lines
	}
	gotNames, gotLines := byName(got)
	wantNames, wantLines := byName(want)
	for _, name := range gotNames {
		if w, ok := wantLines[name]; !ok {
			t.Errorf("%s: no golden line\n got  %s", name, gotLines[name])
		} else if !bytes.Equal(gotLines[name], w) {
			t.Errorf("%s:\n got  %s\n want %s", name, gotLines[name], w)
		}
	}
	if filtered {
		return
	}
	for _, name := range wantNames {
		if _, ok := gotLines[name]; !ok {
			t.Errorf("%s: golden line not produced\n want %s", name, wantLines[name])
		}
	}
	if !t.Failed() && !bytes.Equal(got, want) {
		t.Error("results.golden holds the same lines in another order or with repeats; regenerate with -update")
	}
}
