package routes_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"itbsim/internal/faults"
	"itbsim/internal/optimize"
	"itbsim/internal/routes"
	"itbsim/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite the route fingerprint golden file")

type goldenNet struct {
	name  string
	build func() (*topology.Network, error)
}

// goldenNets is one small instance of every topology generator.
func goldenNets() []goldenNet {
	ring := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}}
	return []goldenNet{
		{"torus-4x4", func() (*topology.Network, error) { return topology.NewTorus(4, 4, 2, 16) }},
		{"express-torus-4x4", func() (*topology.Network, error) { return topology.NewExpressTorus(4, 4, 2, 16) }},
		{"mesh-3x4", func() (*topology.Network, error) { return topology.NewMesh(3, 4, 2, 16) }},
		{"hypercube-4", func() (*topology.Network, error) { return topology.NewHypercube(4, 2, 16) }},
		{"cplant", func() (*topology.Network, error) { return topology.NewCplant(2, 16) }},
		{"hyperx-3x3", func() (*topology.Network, error) { return topology.NewHyperX([]int{3, 3}, 2, 16) }},
		{"fullmesh-5", func() (*topology.Network, error) { return topology.NewFullMesh(5, 2, 16) }},
		{"dragonfly-3-2-1", func() (*topology.Network, error) { return topology.NewDragonfly(3, 2, 1, 2, 16) }},
		{"torus3d-3x3x2", func() (*topology.Network, error) { return topology.NewTorus3D(3, 3, 2, 2, 16) }},
		{"fattree-2-ary-3", func() (*topology.Network, error) { return topology.NewFatTree(2, 3, 16) }},
		{"irregular-12", func() (*topology.Network, error) { return topology.NewRandomIrregular(12, 3, 2, 16, 1) }},
		{"edges-ring6", func() (*topology.Network, error) { return topology.NewFromEdges("ring6", 6, ring, 2, 16) }},
	}
}

type goldenConfig struct {
	name string
	cfg  routes.Config
}

// goldenConfigs are the table configurations pinned for every generator.
func goldenConfigs() []goldenConfig {
	vc3 := routes.DefaultConfig(routes.VC)
	vc3.VCs = 3
	return []goldenConfig{
		{"UP/DOWN", routes.DefaultConfig(routes.UpDown)},
		{"ITB-SP", routes.DefaultConfig(routes.ITBSP)},
		{"ITB-RR", routes.DefaultConfig(routes.ITBRR)},
		{"UD-MIN", routes.DefaultConfig(routes.UpDownMin)},
		{"VC2", routes.DefaultConfig(routes.VC)},
		{"VC3", vc3},
	}
}

// goldenFingerprints renders one line per pinned table: every generator ×
// scheme build, the optimizer on the paper's 8×8 torus, and the fault
// controller's recomputation with one link down. A failing build is pinned
// by its error text.
func goldenFingerprints(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	line := func(what string, tab *routes.Table, err error) {
		if err != nil {
			fmt.Fprintf(&b, "%s error %v\n", what, err)
			return
		}
		fmt.Fprintf(&b, "%s %016x\n", what, tab.Fingerprint())
	}
	for _, g := range goldenNets() {
		net, err := g.build()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		for _, c := range goldenConfigs() {
			tab, err := routes.Build(net, c.cfg)
			line("build "+g.name+" "+c.name, tab, err)
		}
	}

	paper, err := topology.NewTorus(8, 8, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	schemes := []routes.Scheme{routes.UpDown, routes.ITBRR, routes.VC}
	for _, s := range schemes {
		cfg := routes.DefaultConfig(s)
		tab, err := routes.Build(paper, cfg)
		if err != nil {
			t.Fatalf("torus-8x8 %v: %v", s, err)
		}
		opt, _, err := optimize.Optimize(tab, cfg, optimize.EstimateCriticality(tab), optimize.Config{})
		line("optimize torus-8x8 "+s.String(), opt, err)
	}
	for _, s := range schemes {
		set := faults.NewSet(paper)
		set.Apply(faults.Event{Kind: faults.FailLink, ID: 12})
		rc, err := faults.NewController(paper, 0, routes.DefaultConfig(s)).Recompute(set)
		var tab *routes.Table
		if err == nil {
			tab = rc.Table
		}
		line("recompute torus-8x8 link12 "+s.String(), tab, err)
	}
	return b.Bytes()
}

// TestRouteFingerprintGolden pins the routing content of every generator ×
// scheme table, of optimized tables and of a degraded-mode recomputation.
// Route construction may get faster or simpler, but any change to a
// fingerprint here is a change in simulated behaviour. Regenerate with:
// go test ./internal/routes -run FingerprintGolden -update
func TestRouteFingerprintGolden(t *testing.T) {
	got := goldenFingerprints(t)
	path := filepath.Join("testdata", "fingerprints.golden")
	if *updateGolden {
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
