package netsim

import (
	"bytes"
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
func matrixConfig(t *testing.T, net *topology.Network, sch routes.Scheme, faulted bool) Config {
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
func stormConfig(t *testing.T, sch routes.Scheme) Config {
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

// stepLoops names the two step loops every golden case runs under; apply
// mutates a config into that loop.
var stepLoops = []struct {
	name  string
	apply func(*Config)
}{
	{"dense", func(c *Config) { c.DenseStep = true }},
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
func enqueueDrain(t *testing.T, loop func(*Config)) *Result {
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
	return res
}

// goldenResults renders one line per pinned case: the case name and the
// digest of its Result (or, for the snapshot cases, of the checkpoint
// bytes). Every case runs under both step loops.
func goldenResults(t *testing.T) []byte {
	var b bytes.Buffer
	runCase := func(name string, mk func(t *testing.T) Config) {
		t.Run(name, func(t *testing.T) {
			for _, loop := range stepLoops {
				cfg := mk(t)
				loop.apply(&cfg)
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", loop.name, err)
				}
				fmt.Fprintf(&b, "%s/%s %s\n", name, loop.name, valueDigest(t, res))
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

	t.Run("enqueue-drain", func(t *testing.T) {
		for _, loop := range stepLoops {
			fmt.Fprintf(&b, "enqueue-drain/%s %s\n", loop.name, valueDigest(t, enqueueDrain(t, loop.apply)))
		}
	})

	// Mid-run snapshots of the faulted ITB-RR runs: the checkpoint bytes
	// pin the codec's view of the cycle loop's state (generation timers,
	// the retry heap's array order, latency tallies) and not just the
	// final Result.
	snapshots := func(name string, every int64, mk func(t *testing.T) Config) {
		t.Run("snapshot/"+name, func(t *testing.T) {
			for _, loop := range stepLoops {
				cfg := mk(t)
				loop.apply(&cfg)
				_, snaps := runCheckpointed(t, cfg, every)
				for i, snap := range snaps {
					fmt.Fprintf(&b, "snapshot/%s/%s/cycle-%d %s\n", name, loop.name, int64(i+1)*every, bytesDigest(snap))
				}
			}
		})
	}
	torus := matrixNets(t)[0]
	snapshots(torus.Name+"/ITB-RR/faulted", 5_000, func(t *testing.T) Config {
		return matrixConfig(t, torus, routes.ITBRR, true)
	})
	snapshots("torus-4x4/ITB-RR/fault-storm", 10_000, func(t *testing.T) Config { return stormConfig(t, routes.ITBRR) })
	return b.Bytes()
}

// TestResultGolden pins the simulator's behaviour bit for bit: the
// digest of every field of the Result (metrics series, latency histograms,
// drop and reconfiguration accounting included) for a matrix of
// topologies, schemes, fault modes and step loops, plus the bytes of
// mid-run checkpoints. The simulator core may get faster or simpler, but a
// changed line here is a change in simulated behaviour. Regenerate with:
// go test ./internal/netsim -run ResultGolden -update
func TestResultGolden(t *testing.T) {
	got := goldenResults(t)
	if t.Failed() {
		return
	}
	path := filepath.Join("testdata", "results.golden")
	if *updateGolden {
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
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}
