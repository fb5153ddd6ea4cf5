package itbsim_test

import (
	"errors"
	"strings"
	"testing"

	"itbsim"
)

func TestFacadeTopologies(t *testing.T) {
	cases := []struct {
		name            string
		build           func() (*itbsim.Network, error)
		switches, hosts int
	}{
		{"torus", func() (*itbsim.Network, error) { return itbsim.NewTorus(4, 4, 2) }, 16, 32},
		{"express", func() (*itbsim.Network, error) { return itbsim.NewExpressTorus(8, 8, 1) }, 64, 64},
		{"cplant", func() (*itbsim.Network, error) { return itbsim.NewCplant(1) }, 50, 50},
		{"mesh", func() (*itbsim.Network, error) { return itbsim.NewMesh(3, 3, 1) }, 9, 9},
		{"hypercube", func() (*itbsim.Network, error) { return itbsim.NewHypercube(4, 1) }, 16, 16},
	}
	for _, c := range cases {
		net, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if net.Switches != c.switches || net.NumHosts() != c.hosts {
			t.Errorf("%s: %d switches %d hosts, want %d/%d",
				c.name, net.Switches, net.NumHosts(), c.switches, c.hosts)
		}
	}
}

func TestFacadeCustomTopology(t *testing.T) {
	net, err := itbsim.NewCustom("line", 3, [][2]int{{0, 1}, {1, 2}}, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := itbsim.BuildRoutes(net, itbsim.UpDown)
	if err != nil {
		t.Fatal(err)
	}
	st := tab.ComputeStats()
	// A line is a tree: up*/down* is always minimal.
	if st.MinimalFraction != 1 {
		t.Errorf("line topology minimal fraction = %f", st.MinimalFraction)
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	net, err := itbsim.NewTorus(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := itbsim.BuildRoutes(net, itbsim.ITBRR)
	if err != nil {
		t.Fatal(err)
	}
	dest, err := itbsim.Uniform(net.NumHosts())
	if err != nil {
		t.Fatal(err)
	}
	res, err := itbsim.Simulate(itbsim.SimConfig{
		Net: net, Table: tab, Dest: dest,
		Load: 0.02, MessageBytes: 128, Seed: 1,
		WarmupMessages: 50, MeasureMessages: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted <= 0 || res.AvgLatencyNs <= 0 {
		t.Errorf("degenerate result %+v", res)
	}
}

func TestFacadeSweep(t *testing.T) {
	net, err := itbsim.NewTorus(4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := itbsim.BuildRoutes(net, itbsim.UpDown)
	if err != nil {
		t.Fatal(err)
	}
	dest, err := itbsim.Uniform(net.NumHosts())
	if err != nil {
		t.Fatal(err)
	}
	curve, err := itbsim.Sweep(itbsim.RunSpec{
		Net: net, Table: tab, Dest: dest,
		Loads: []float64{0.01, 0.02}, MessageBytes: 128, Seed: 1,
		WarmupMessages: 50, MeasureMessages: 150, Label: "facade",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) != 2 {
		t.Fatalf("curve has %d points", len(curve.Points))
	}
	if curve.SaturationThroughput() <= 0 {
		t.Error("no throughput measured")
	}
	if !strings.Contains(curve.Table(), "facade") {
		t.Error("label missing from table output")
	}
	if _, err := itbsim.Sweep(itbsim.RunSpec{Net: net, Table: tab, Dest: dest}); err == nil {
		t.Error("empty load grid accepted")
	}

	// The single-curve form is also a method on the spec itself.
	mcurve, err := itbsim.RunSpec{
		Net: net, Table: tab, Dest: dest,
		Loads: []float64{0.01}, MessageBytes: 128, Seed: 1,
		WarmupMessages: 50, MeasureMessages: 150, Label: "method",
	}.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(mcurve.Points) != 1 || mcurve.Label != "method" {
		t.Errorf("RunSpec.Sweep returned %d points, label %q", len(mcurve.Points), mcurve.Label)
	}
}

func TestFacadeTrafficConstructors(t *testing.T) {
	net, err := itbsim.NewTorus(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := itbsim.Uniform(net.NumHosts()); err != nil {
		t.Error(err)
	}
	if _, err := itbsim.BitReversal(net.NumHosts()); err != nil {
		t.Error(err)
	}
	if _, err := itbsim.Hotspot(net.NumHosts(), 5, 0.05); err != nil {
		t.Error(err)
	}
	if _, err := itbsim.Local(net, 3); err != nil {
		t.Error(err)
	}
}

func TestFacadeParamsAndAnalyze(t *testing.T) {
	p := itbsim.DefaultParams()
	if p.CycleNs != 6.25 || p.SlackBufferFlits != 80 {
		t.Errorf("unexpected default params: %+v", p)
	}
	net, err := itbsim.NewTorus(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep := itbsim.AnalyzeLinkUtil(net, make([]float64, net.NumChannels()), 0, 5)
	if rep.Summary.N != net.NumChannels() {
		t.Errorf("analyze saw %d channels", rep.Summary.N)
	}
}

// TestFacadeConfigErrors pins the typed constructor errors: every New*
// guard reports a *itbsim.ConfigError naming the offending field, and the
// rendered messages stay stable.
func TestFacadeConfigErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*itbsim.Network, error)
		field string
		msg   string
	}{
		{"torus", func() (*itbsim.Network, error) { return itbsim.NewTorus(1, 8, 2) },
			"rows/cols", "invalid rows/cols 1x8: torus needs at least 2x2 switches"},
		{"express", func() (*itbsim.Network, error) { return itbsim.NewExpressTorus(8, 1, 2) },
			"rows/cols", "invalid rows/cols 8x1: express torus needs at least 2x2 switches"},
		{"mesh", func() (*itbsim.Network, error) { return itbsim.NewMesh(1, 1, 2) },
			"rows/cols", "invalid rows/cols 1x1: mesh needs at least 2 switches"},
		{"hypercube", func() (*itbsim.Network, error) { return itbsim.NewHypercube(0, 2) },
			"dim", "invalid dim 0: hypercube dimension out of range [1,16]"},
		{"torus3d", func() (*itbsim.Network, error) { return itbsim.NewTorus3D(2, 2, 1, 2) },
			"x/y/z", "invalid x/y/z 2x2x1: 3-D torus needs at least 2x2x2 switches"},
		{"fattree-k", func() (*itbsim.Network, error) { return itbsim.NewFatTree(1, 2) },
			"k", "invalid k 1: fat tree needs arity k >= 2"},
		{"fattree-n", func() (*itbsim.Network, error) { return itbsim.NewFatTree(2, 1) },
			"n", "invalid n 1: fat tree needs at least 2 levels"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.build()
			if err == nil {
				t.Fatal("invalid configuration accepted")
			}
			var ce *itbsim.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("error is %T, want *itbsim.ConfigError", err)
			}
			if ce.Field != c.field {
				t.Errorf("Field = %q, want %q", ce.Field, c.field)
			}
			if err.Error() != c.msg {
				t.Errorf("message = %q, want %q", err.Error(), c.msg)
			}
		})
	}
}

func TestFacadeBuildRoutesWith(t *testing.T) {
	net, err := itbsim.NewTorus(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := itbsim.BuildRoutesConfig{Scheme: itbsim.ITBRR, Root: 5, MaxAlternatives: 3}
	tab, err := itbsim.BuildRoutesWith(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := tab.ComputeStats(); st.MaxAlternatives > 3 {
		t.Errorf("alternatives cap ignored: %d", st.MaxAlternatives)
	}
}
