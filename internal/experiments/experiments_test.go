package experiments

import (
	"strings"
	"testing"

	"itbsim/internal/routes"
	"itbsim/internal/runner"
)

func TestParseScale(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Scale
	}{{"small", ScaleSmall}, {"medium", ScaleMedium}, {"paper", ScalePaper}, {"full", ScalePaper}} {
		got, err := ParseScale(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseScale(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("bad scale accepted")
	}
	if ScaleSmall.String() != "small" || ScalePaper.String() != "paper" {
		t.Error("scale names wrong")
	}
}

func TestBuildNetworkScales(t *testing.T) {
	cases := []struct {
		topo            string
		scale           Scale
		switches, hosts int
	}{
		{TopoTorus, ScaleSmall, 16, 32},
		{TopoTorus, ScaleMedium, 64, 128},
		{TopoTorus, ScalePaper, 64, 512},
		{TopoExpress, ScalePaper, 64, 512},
		{TopoCplant, ScalePaper, 50, 400},
		{TopoCplant, ScaleMedium, 50, 100},
	}
	for _, c := range cases {
		net, err := BuildNetwork(c.topo, c.scale)
		if err != nil {
			t.Fatalf("%s/%v: %v", c.topo, c.scale, err)
		}
		if net.Switches != c.switches || net.NumHosts() != c.hosts {
			t.Errorf("%s/%v: %d switches %d hosts, want %d/%d",
				c.topo, c.scale, net.Switches, net.NumHosts(), c.switches, c.hosts)
		}
	}
	if _, err := BuildNetwork("ring", ScaleSmall); err == nil {
		t.Error("unknown topology accepted")
	}
	if _, err := BuildNetwork(TopoTorus, Scale(99)); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestEnvTableCaching(t *testing.T) {
	e, err := NewEnv(TopoTorus, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := e.Table(routes.ITBRR)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := e.Table(routes.ITBRR)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Error("table not cached")
	}
	t3, err := e.Table(routes.UpDown)
	if err != nil {
		t.Fatal(err)
	}
	if t3 == t1 {
		t.Error("schemes share a table")
	}
}

func TestPatternDestFn(t *testing.T) {
	e, err := NewEnv(TopoTorus, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	good := []Pattern{
		{Kind: "uniform"},
		{Kind: "bitrev"},
		{Kind: "hotspot", HotspotHost: 3, HotspotFraction: 0.05},
		{Kind: "local", LocalRadius: 3},
	}
	for _, p := range good {
		if _, err := p.DestFn(e.Net); err != nil {
			t.Errorf("%v: %v", p, err)
		}
	}
	if _, err := (Pattern{Kind: "storm"}).DestFn(e.Net); err == nil {
		t.Error("unknown pattern accepted")
	}
	// CPLANT has 100 hosts at medium scale: not a power of two.
	ec, err := NewEnv(TopoCplant, ScaleMedium)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Pattern{Kind: "bitrev"}).DestFn(ec.Net); err == nil {
		t.Error("bitrev accepted on a non-power-of-2 host count")
	}
}

func TestPatternString(t *testing.T) {
	if s := (Pattern{Kind: "hotspot", HotspotHost: 5, HotspotFraction: 0.1}).String(); !strings.Contains(s, "10%") {
		t.Errorf("hotspot string = %q", s)
	}
	if s := (Pattern{Kind: "local", LocalRadius: 4}).String(); !strings.Contains(s, "r=4") {
		t.Errorf("local string = %q", s)
	}
	if s := (Pattern{Kind: "uniform"}).String(); s != "uniform" {
		t.Errorf("uniform string = %q", s)
	}
}

func TestPresetsAndLoads(t *testing.T) {
	if PresetFor(ScaleSmall).Measure >= PresetFor(ScalePaper).Measure {
		t.Error("paper preset should measure more messages")
	}
	for _, topo := range []string{TopoTorus, TopoExpress, TopoCplant} {
		base := DefaultLoads(topo, ScaleMedium)
		small := DefaultLoads(topo, ScaleSmall)
		if len(base) != len(small) {
			t.Fatalf("%s: grid lengths differ", topo)
		}
		for i := range base {
			if small[i] <= base[i] {
				t.Fatalf("%s: small grid not scaled up at %d", topo, i)
			}
		}
		for i := 1; i < len(base); i++ {
			if base[i] <= base[i-1] {
				t.Fatalf("%s: loads not ascending", topo)
			}
		}
		local := LocalLoads(topo, ScaleMedium)
		if local[len(local)-1] <= base[len(base)-1]/2 {
			t.Errorf("%s: local grid should extend well beyond uniform grid", topo)
		}
	}
}

func TestHotspotAveragesAndFormat(t *testing.T) {
	rows := []HotspotRow{
		{Location: 1, Throughput: []float64{0.01, 0.02, 0.03}},
		{Location: 2, Throughput: []float64{0.03, 0.04, 0.05}},
	}
	avg := HotspotAverages(rows)
	if avg[0] != 0.02 || avg[1] != 0.03 || avg[2] != 0.04 {
		t.Errorf("averages = %v", avg)
	}
	out := FormatHotspotTable(0.05, rows)
	if !strings.Contains(out, "hotspot 5%") || !strings.Contains(out, "Avg") {
		t.Errorf("format:\n%s", out)
	}
	if HotspotAverages(nil) != nil {
		t.Error("empty battery should average to nil")
	}
}

func TestStaticRouteReportSmall(t *testing.T) {
	e, err := NewEnv(TopoTorus, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := StaticRouteReport(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"UP/DOWN", "ITB-SP", "ITB-RR", "minimal%"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestLinkUtilFromBusy(t *testing.T) {
	e, err := NewEnv(TopoTorus, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	busy := make([]float64, e.Net.NumChannels())
	busy[0] = 0.5
	out, err := LinkUtilFromBusy(e, busy)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "per-switch max outgoing utilization") {
		t.Errorf("torus report missing grid:\n%s", out)
	}
	ec, err := NewEnv(TopoCplant, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	outC, err := LinkUtilFromBusy(ec, make([]float64, ec.Net.NumChannels()))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(outC, "per-switch") {
		t.Error("cplant should not render a torus grid")
	}
}

func TestRunOneSmallPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	e, err := NewEnv(TopoTorus, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	snaps, rep, err := LinkUtilSnapshot(e, []routes.Scheme{routes.ITBRR}, Pattern{Kind: "uniform"}, 0.02, 128, 1, 5, runner.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || len(rep.Curves) != 1 {
		t.Fatalf("one scheme gave %d snapshots and %d curves", len(snaps), len(rep.Curves))
	}
	res := snaps[0].Result
	if res != rep.Curves[0].Curve.Points[0].Result {
		t.Error("snapshot result is not the runner report's point")
	}
	if res.Accepted <= 0 || res.AvgLatencyNs <= 0 {
		t.Errorf("degenerate result: %+v", res)
	}
	if res.LinkBusy == nil {
		t.Error("link utilization not collected")
	}
	if len(snaps[0].Report.Top) != 5 || snaps[0].Grid == "" {
		t.Errorf("snapshot report has %d hottest links and grid %q, want 5 and a torus grid",
			len(snaps[0].Report.Top), snaps[0].Grid)
	}
}

func TestSweepEarlyStops(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too slow for -short")
	}
	e, err := NewEnv(TopoTorus, ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	// A grid extending far beyond saturation: the sweep must not run all
	// of it (early stop two points past first saturation).
	loads := []float64{0.02, 0.05, 0.08, 0.11, 0.14, 0.17, 0.2, 0.23, 0.26, 0.29, 0.32, 0.35}
	c, err := Sweep(e, routes.UpDown, Pattern{Kind: "uniform"}, loads, 256, 1, runner.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Saturated() {
		t.Fatal("sweep never saturated")
	}
	if len(c.Points) == len(loads) {
		t.Errorf("sweep ran all %d points despite early saturation", len(loads))
	}
}
