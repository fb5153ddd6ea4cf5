// Benchmarks regenerating every table and figure of the paper's evaluation
// (§4.7). Each benchmark prints the same rows/series the paper reports and
// publishes the headline numbers as benchmark metrics.
//
// By default the benches run at a reduced scale (ITBSIM_SCALE=small: 4x4
// switch fabrics, 2 hosts per switch) so the whole suite completes in
// minutes on one core. Set ITBSIM_SCALE=medium for the paper's 8x8 fabrics
// with 2 hosts per switch, or ITBSIM_SCALE=paper for the full 512-host
// configuration of §4.1 (hours). EXPERIMENTS.md records paper-vs-measured
// numbers for the qualitative claims at each scale.
package itbsim_test

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"itbsim/internal/experiments"
	"itbsim/internal/gm"
	"itbsim/internal/mapper"
	"itbsim/internal/netsim"
	"itbsim/internal/routes"
	"itbsim/internal/runner"
	"itbsim/internal/topology"
	"itbsim/internal/traffic"
)

func benchScale(b *testing.B) experiments.Scale {
	if s := os.Getenv("ITBSIM_SCALE"); s != "" {
		sc, err := experiments.ParseScale(s)
		if err != nil {
			b.Fatalf("ITBSIM_SCALE: %v", err)
		}
		return sc
	}
	return experiments.ScaleSmall
}

var (
	envMu    sync.Mutex
	envCache = map[string]*experiments.Env{}
)

func benchEnv(b *testing.B, topo string) *experiments.Env {
	b.Helper()
	scale := benchScale(b)
	key := fmt.Sprintf("%s/%v", topo, scale)
	envMu.Lock()
	defer envMu.Unlock()
	if e, ok := envCache[key]; ok {
		return e
	}
	e, err := experiments.NewEnv(topo, scale)
	if err != nil {
		b.Fatal(err)
	}
	envCache[key] = e
	return e
}

// latencyFigure runs one latency/traffic figure and reports saturation
// throughputs as metrics.
func latencyFigure(b *testing.B, topo string, p experiments.Pattern, loads []float64) {
	e := benchEnv(b, topo)
	if loads == nil {
		if p.Kind == "local" {
			loads = experiments.LocalLoads(topo, e.Scale)
		} else {
			loads = experiments.DefaultLoads(topo, e.Scale)
		}
	}
	for i := 0; i < b.N; i++ {
		cs, err := experiments.LatencyFigure(e, p, loads, 512, 1, runner.Spec{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\n### %s %s %s (%s)\n%s", b.Name(), topo, p, e.Scale, cs.String())
			sat := cs.Saturation()
			b.ReportMetric(sat[0], "UD-sat")
			b.ReportMetric(sat[1], "SP-sat")
			b.ReportMetric(sat[2], "RR-sat")
			if sat[0] > 0 {
				b.ReportMetric(sat[2]/sat[0], "RR/UD")
			}
		}
	}
}

// Figure 7: uniform traffic, latency vs accepted traffic.

func BenchmarkFig7aUniformTorus(b *testing.B) {
	latencyFigure(b, experiments.TopoTorus, experiments.Pattern{Kind: "uniform"}, nil)
}

func BenchmarkFig7bUniformExpress(b *testing.B) {
	latencyFigure(b, experiments.TopoExpress, experiments.Pattern{Kind: "uniform"}, nil)
}

func BenchmarkFig7cUniformCplant(b *testing.B) {
	latencyFigure(b, experiments.TopoCplant, experiments.Pattern{Kind: "uniform"}, nil)
}

// Figures 8, 9, 11: link utilization snapshots.

func linkUtilFigure(b *testing.B, topo string, p experiments.Pattern, schemes []routes.Scheme, loads []float64) {
	e := benchEnv(b, topo)
	for i := 0; i < b.N; i++ {
		for j, sch := range schemes {
			snaps, _, err := experiments.LinkUtilSnapshot(e, []routes.Scheme{sch}, p, loads[j], 512, 1, 10, runner.Spec{})
			if err != nil {
				b.Fatal(err)
			}
			res := snaps[0]
			if i == 0 {
				fmt.Printf("\n### %s %s %s %s at %.4f flits/ns/switch (%s)\n%s",
					b.Name(), topo, sch, p, loads[j], e.Scale, res.Report.String())
				if res.Grid != "" {
					fmt.Printf("per-switch max outgoing utilization (%%):\n%s", res.Grid)
				}
				b.ReportMetric(res.Report.Summary.Max, fmt.Sprintf("max-util-%d", j))
			}
		}
	}
}

func BenchmarkFig8LinkUtilTorus(b *testing.B) {
	// Paper: UP/DOWN and ITB-RR at the UP/DOWN saturation point, plus
	// ITB-RR at its own saturation point. Loads follow the scale's grid.
	e := benchEnv(b, experiments.TopoTorus)
	grid := experiments.DefaultLoads(experiments.TopoTorus, e.Scale)
	udSat := grid[len(grid)/2]
	linkUtilFigure(b, experiments.TopoTorus, experiments.Pattern{Kind: "uniform"},
		[]routes.Scheme{routes.UpDown, routes.ITBRR, routes.ITBRR},
		[]float64{udSat, udSat, grid[len(grid)-2]})
}

func BenchmarkFig9LinkUtilExpress(b *testing.B) {
	e := benchEnv(b, experiments.TopoExpress)
	grid := experiments.DefaultLoads(experiments.TopoExpress, e.Scale)
	udSat := grid[len(grid)/2]
	linkUtilFigure(b, experiments.TopoExpress, experiments.Pattern{Kind: "uniform"},
		[]routes.Scheme{routes.UpDown, routes.ITBRR},
		[]float64{udSat, udSat})
}

func BenchmarkFig11LinkUtilHotspot(b *testing.B) {
	e := benchEnv(b, experiments.TopoTorus)
	grid := experiments.DefaultLoads(experiments.TopoTorus, e.Scale)
	udSat := grid[len(grid)/2-1]
	hs := e.Net.NumHosts() / 2
	linkUtilFigure(b, experiments.TopoTorus,
		experiments.Pattern{Kind: "hotspot", HotspotHost: hs, HotspotFraction: 0.10},
		[]routes.Scheme{routes.UpDown, routes.ITBRR},
		[]float64{udSat, udSat})
}

// Figure 10: bit-reversal traffic.

func BenchmarkFig10aBitrevTorus(b *testing.B) {
	latencyFigure(b, experiments.TopoTorus, experiments.Pattern{Kind: "bitrev"}, nil)
}

func BenchmarkFig10bBitrevExpress(b *testing.B) {
	latencyFigure(b, experiments.TopoExpress, experiments.Pattern{Kind: "bitrev"}, nil)
}

// Figure 12: local traffic (destinations at most 3 switches away).

func BenchmarkFig12aLocalTorus(b *testing.B) {
	latencyFigure(b, experiments.TopoTorus, experiments.Pattern{Kind: "local", LocalRadius: 3}, nil)
}

func BenchmarkFig12bLocalExpress(b *testing.B) {
	latencyFigure(b, experiments.TopoExpress, experiments.Pattern{Kind: "local", LocalRadius: 3}, nil)
}

func BenchmarkFig12cLocalCplant(b *testing.B) {
	latencyFigure(b, experiments.TopoCplant, experiments.Pattern{Kind: "local", LocalRadius: 3}, nil)
}

// Tables 1-3: hotspot throughput at random hotspot locations. The paper
// uses 10 locations; the benches default to 3 to bound runtime (the
// location count only tightens the average).
func hotspotTable(b *testing.B, topo string, fractions []float64, locations int) {
	e := benchEnv(b, topo)
	loads := experiments.DefaultLoads(topo, e.Scale)
	for i := 0; i < b.N; i++ {
		for _, frac := range fractions {
			rows, _, err := experiments.HotspotBattery(e, frac, locations, loads, 512, 1, runner.Spec{})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				fmt.Printf("\n### %s %s (%s)\n%s", b.Name(), topo, e.Scale,
					experiments.FormatHotspotTable(frac, rows))
				avg := experiments.HotspotAverages(rows)
				b.ReportMetric(avg[0], fmt.Sprintf("UD@%g", frac))
				b.ReportMetric(avg[2], fmt.Sprintf("RR@%g", frac))
			}
		}
	}
}

func BenchmarkTable1HotspotTorus(b *testing.B) {
	hotspotTable(b, experiments.TopoTorus, []float64{0.05, 0.10}, 3)
}

func BenchmarkTable2HotspotExpress(b *testing.B) {
	hotspotTable(b, experiments.TopoExpress, []float64{0.03, 0.05}, 3)
}

func BenchmarkTable3HotspotCplant(b *testing.B) {
	hotspotTable(b, experiments.TopoCplant, []float64{0.05}, 3)
}

// Static route statistics of §4.7.1: minimal-path fractions, average
// distances, ITBs per route. Always runs at the paper's full scale (it is
// pure route computation, no simulation).
func BenchmarkStaticRouteStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e, err := experiments.NewEnv(experiments.TopoTorus, experiments.ScalePaper)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := experiments.StaticRouteReport(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("\n### %s (paper: UP/DOWN 80%% minimal, dist 4.57; ITB dist 4.06)\n%s", b.Name(), rep)
		}
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationRouteLimit varies the cap on alternative minimal routes
// (§4.5 fixes it at 10 to bound table look-up delay) and reports ITB-RR
// saturation throughput under uniform traffic.
func BenchmarkAblationRouteLimit(b *testing.B) {
	e := benchEnv(b, experiments.TopoTorus)
	loads := experiments.DefaultLoads(experiments.TopoTorus, e.Scale)
	dest, err := traffic.Uniform(e.Net.NumHosts())
	if err != nil {
		b.Fatal(err)
	}
	pre := experiments.PresetFor(e.Scale)
	for i := 0; i < b.N; i++ {
		for _, limit := range []int{1, 2, 4, 10} {
			cfg := routes.DefaultConfig(routes.ITBRR)
			cfg.MaxAlternatives = limit
			tab, err := routes.Build(e.Net, cfg)
			if err != nil {
				b.Fatal(err)
			}
			best := 0.0
			for _, load := range loads {
				res, err := netsim.Run(netsim.Config{
					Net: e.Net, Table: tab.Clone(), Dest: dest,
					Load: load, MessageBytes: 512, Seed: 1,
					WarmupMessages: pre.Warmup, MeasureMessages: pre.Measure,
					MaxCycles: pre.MaxCycles,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Accepted > best {
					best = res.Accepted
				}
				if res.Accepted < 0.92*res.Injected {
					break
				}
			}
			if i == 0 {
				fmt.Printf("### %s: limit=%-2d saturation=%.4f flits/ns/switch\n", b.Name(), limit, best)
				b.ReportMetric(best, fmt.Sprintf("sat-limit%d", limit))
			}
		}
	}
}

// BenchmarkAblationITBOverhead varies the in-transit detection and DMA
// programming delays around the measured 275/200 ns (§4.5) and reports
// ITB-SP latency and saturation.
func BenchmarkAblationITBOverhead(b *testing.B) {
	e := benchEnv(b, experiments.TopoTorus)
	loads := experiments.DefaultLoads(experiments.TopoTorus, e.Scale)
	dest, err := traffic.Uniform(e.Net.NumHosts())
	if err != nil {
		b.Fatal(err)
	}
	tab, err := e.Table(routes.ITBSP)
	if err != nil {
		b.Fatal(err)
	}
	pre := experiments.PresetFor(e.Scale)
	type variant struct {
		name        string
		detect, dma int
	}
	variants := []variant{
		{"zero", 1, 0},
		{"paper", 44, 32}, // 275 ns + 200 ns
		{"4x", 176, 128},
	}
	for i := 0; i < b.N; i++ {
		for _, v := range variants {
			p := netsim.DefaultParams()
			p.ITBDetectFlits = v.detect
			p.ITBDMAFlits = v.dma
			best, lat0 := 0.0, 0.0
			for pi, load := range loads {
				res, err := netsim.Run(netsim.Config{
					Net: e.Net, Table: tab.Clone(), Dest: dest,
					Load: load, MessageBytes: 512, Seed: 1,
					WarmupMessages: pre.Warmup, MeasureMessages: pre.Measure,
					MaxCycles: pre.MaxCycles, Params: p,
				})
				if err != nil {
					b.Fatal(err)
				}
				if pi == 0 {
					lat0 = res.AvgLatencyNs
				}
				if res.Accepted > best {
					best = res.Accepted
				}
				if res.Accepted < 0.92*res.Injected {
					break
				}
			}
			if i == 0 {
				fmt.Printf("### %s: overhead=%-5s zero-load=%.0fns saturation=%.4f\n", b.Name(), v.name, lat0, best)
			}
		}
	}
}

// BenchmarkAblationRootChoice moves the up*/down* root (§2: traffic
// concentrates around the root) and reports UP/DOWN saturation throughput.
func BenchmarkAblationRootChoice(b *testing.B) {
	e := benchEnv(b, experiments.TopoTorus)
	loads := experiments.DefaultLoads(experiments.TopoTorus, e.Scale)
	dest, err := traffic.Uniform(e.Net.NumHosts())
	if err != nil {
		b.Fatal(err)
	}
	pre := experiments.PresetFor(e.Scale)
	rootsToTry := []int{0, e.Net.Switches / 2, e.Net.Switches - 1}
	for i := 0; i < b.N; i++ {
		for _, root := range rootsToTry {
			cfg := routes.DefaultConfig(routes.UpDown)
			cfg.Root = root
			tab, err := routes.Build(e.Net, cfg)
			if err != nil {
				b.Fatal(err)
			}
			best := 0.0
			for _, load := range loads {
				res, err := netsim.Run(netsim.Config{
					Net: e.Net, Table: tab.Clone(), Dest: dest,
					Load: load, MessageBytes: 512, Seed: 1,
					WarmupMessages: pre.Warmup, MeasureMessages: pre.Measure,
					MaxCycles: pre.MaxCycles,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Accepted > best {
					best = res.Accepted
				}
				if res.Accepted < 0.92*res.Injected {
					break
				}
			}
			if i == 0 {
				fmt.Printf("### %s: root=%-2d UP/DOWN saturation=%.4f (torus is vertex-symmetric: expect ~equal)\n",
					b.Name(), root, best)
			}
		}
	}
}

// BenchmarkAblationBalanceFactor varies the aggressiveness of the
// simple_routes emulation's weighted-link balancing (LoadFactor 0 = pure
// shortest legal paths with deterministic tie-breaks; higher trades longer
// paths for balance) and reports UP/DOWN saturation. This quantifies how
// much of the UP/DOWN baseline's throughput comes from route balancing —
// the knob that explains the gap between our UP/DOWN saturation and the
// paper's (see EXPERIMENTS.md).
func BenchmarkAblationBalanceFactor(b *testing.B) {
	e := benchEnv(b, experiments.TopoTorus)
	loads := experiments.DefaultLoads(experiments.TopoTorus, e.Scale)
	dest, err := traffic.Uniform(e.Net.NumHosts())
	if err != nil {
		b.Fatal(err)
	}
	pre := experiments.PresetFor(e.Scale)
	for i := 0; i < b.N; i++ {
		for _, lf := range []float64{0, 0.25, 1, 4} {
			cfg := routes.DefaultConfig(routes.UpDown)
			cfg.Balanced.LoadFactor = lf
			tab, err := routes.Build(e.Net, cfg)
			if err != nil {
				b.Fatal(err)
			}
			best := 0.0
			for _, load := range loads {
				res, err := netsim.Run(netsim.Config{
					Net: e.Net, Table: tab.Clone(), Dest: dest,
					Load: load, MessageBytes: 512, Seed: 1,
					WarmupMessages: pre.Warmup, MeasureMessages: pre.Measure,
					MaxCycles: pre.MaxCycles,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Accepted > best {
					best = res.Accepted
				}
				if res.Accepted < 0.92*res.Injected {
					break
				}
			}
			if i == 0 {
				fmt.Printf("### %s: loadfactor=%-4g UP/DOWN saturation=%.4f\n", b.Name(), lf, best)
				b.ReportMetric(best, fmt.Sprintf("sat-lf%g", lf))
			}
		}
	}
}

// BenchmarkAblationSimpleRoutesVsAllMinimal verifies the §4.5 claim that
// the routes given by the simple_routes program (weighted-link balancing,
// one path per pair) achieve higher network throughput than using all the
// minimal up*/down* paths available (UD-MIN, round-robin).
func BenchmarkAblationSimpleRoutesVsAllMinimal(b *testing.B) {
	e := benchEnv(b, experiments.TopoTorus)
	loads := experiments.DefaultLoads(experiments.TopoTorus, e.Scale)
	dest, err := traffic.Uniform(e.Net.NumHosts())
	if err != nil {
		b.Fatal(err)
	}
	pre := experiments.PresetFor(e.Scale)
	for i := 0; i < b.N; i++ {
		sats := map[routes.Scheme]float64{}
		for _, sch := range []routes.Scheme{routes.UpDown, routes.UpDownMin} {
			tab, err := e.Table(sch)
			if err != nil {
				b.Fatal(err)
			}
			best := 0.0
			for _, load := range loads {
				res, err := netsim.Run(netsim.Config{
					Net: e.Net, Table: tab.Clone(), Dest: dest,
					Load: load, MessageBytes: 512, Seed: 1,
					WarmupMessages: pre.Warmup, MeasureMessages: pre.Measure,
					MaxCycles: pre.MaxCycles,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Accepted > best {
					best = res.Accepted
				}
				if res.Accepted < 0.92*res.Injected {
					break
				}
			}
			sats[sch] = best
		}
		if i == 0 {
			fmt.Printf("### %s: simple_routes=%.4f all-minimal-UD=%.4f (paper: simple_routes higher)\n",
				b.Name(), sats[routes.UpDown], sats[routes.UpDownMin])
			b.ReportMetric(sats[routes.UpDown], "simple-routes")
			b.ReportMetric(sats[routes.UpDownMin], "ud-min")
		}
	}
}

// BenchmarkAblationPathSelection compares path-selection policies on top
// of ITB minimal routing: the paper's round-robin, random, fewest-ITB, and
// the latency-adaptive source policy of the paper's future work (§5).
// Reported per policy: saturation throughput under uniform traffic.
func BenchmarkAblationPathSelection(b *testing.B) {
	e := benchEnv(b, experiments.TopoTorus)
	loads := experiments.DefaultLoads(experiments.TopoTorus, e.Scale)
	dest, err := traffic.Uniform(e.Net.NumHosts())
	if err != nil {
		b.Fatal(err)
	}
	master, err := e.Table(routes.ITBRR)
	if err != nil {
		b.Fatal(err)
	}
	pre := experiments.PresetFor(e.Scale)
	policies := []struct {
		name string
		sel  func() routes.Selector
	}{
		{"round-robin", func() routes.Selector { return nil }},
		{"random", func() routes.Selector { return routes.NewRandomSelector(7) }},
		{"fewest-itb", func() routes.Selector { return routes.NewFewestITBSelector() }},
		{"adaptive", func() routes.Selector { return routes.NewAdaptiveSelector(routes.DefaultAdaptiveConfig()) }},
	}
	for i := 0; i < b.N; i++ {
		for _, pol := range policies {
			best := 0.0
			for _, load := range loads {
				res, err := netsim.Run(netsim.Config{
					Net: e.Net, Table: master.Clone().SetSelector(pol.sel()), Dest: dest,
					Load: load, MessageBytes: 512, Seed: 1,
					WarmupMessages: pre.Warmup, MeasureMessages: pre.Measure,
					MaxCycles: pre.MaxCycles,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Accepted > best {
					best = res.Accepted
				}
				if res.Accepted < 0.92*res.Injected {
					break
				}
			}
			if i == 0 {
				fmt.Printf("### %s: %-11s saturation=%.4f\n", b.Name(), pol.name, best)
			}
		}
	}
}

// BenchmarkFlowControlIdle reproduces the §4.7.1 observation that at the
// ITB-RR saturation point the network saturates while link utilization is
// still low: a substantial share of links sit idle more than 10% of the
// time due to the stop & go flow control.
func BenchmarkFlowControlIdle(b *testing.B) {
	e := benchEnv(b, experiments.TopoTorus)
	grid := experiments.DefaultLoads(experiments.TopoTorus, e.Scale)
	load := grid[len(grid)-2] // near ITB-RR saturation
	dest, err := traffic.Uniform(e.Net.NumHosts())
	if err != nil {
		b.Fatal(err)
	}
	tab, err := e.Table(routes.ITBRR)
	if err != nil {
		b.Fatal(err)
	}
	pre := experiments.PresetFor(e.Scale)
	for i := 0; i < b.N; i++ {
		res, err := netsim.Run(netsim.Config{
			Net: e.Net, Table: tab.Clone(), Dest: dest,
			Load: load, MessageBytes: 512, Seed: 1,
			WarmupMessages: pre.Warmup, MeasureMessages: pre.Measure,
			MaxCycles: pre.MaxCycles, CollectLinkUtil: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			over10 := 0
			for _, f := range res.LinkStopped {
				if f > 0.10 {
					over10++
				}
			}
			frac := float64(over10) / float64(len(res.LinkStopped))
			fmt.Printf("### %s: at %.4f flits/ns/switch, %.0f%% of channels idle >10%% of time due to stop&go (paper: 20%%)\n",
				b.Name(), load, 100*frac)
			b.ReportMetric(frac, "frac-links-stopped>10%")
		}
	}
}

// BenchmarkAblationSourceBubbles models footnote 1: bubbles injected by
// bandwidth-limited source NICs lower the effective reception rate at
// in-transit hosts. The paper argues the MCP can avoid them; this ablation
// measures what they would cost ITB-RR if not avoided.
func BenchmarkAblationSourceBubbles(b *testing.B) {
	e := benchEnv(b, experiments.TopoTorus)
	loads := experiments.DefaultLoads(experiments.TopoTorus, e.Scale)
	dest, err := traffic.Uniform(e.Net.NumHosts())
	if err != nil {
		b.Fatal(err)
	}
	tab, err := e.Table(routes.ITBRR)
	if err != nil {
		b.Fatal(err)
	}
	pre := experiments.PresetFor(e.Scale)
	for i := 0; i < b.N; i++ {
		for _, period := range []int{0, 16, 4} {
			p := netsim.DefaultParams()
			p.SourceBubblePeriod = period
			best, lat0 := 0.0, 0.0
			for pi, load := range loads {
				res, err := netsim.Run(netsim.Config{
					Net: e.Net, Table: tab.Clone(), Dest: dest,
					Load: load, MessageBytes: 512, Seed: 1,
					WarmupMessages: pre.Warmup, MeasureMessages: pre.Measure,
					MaxCycles: pre.MaxCycles, Params: p,
				})
				if err != nil {
					b.Fatal(err)
				}
				if pi == 0 {
					lat0 = res.AvgLatencyNs
				}
				if res.Accepted > best {
					best = res.Accepted
				}
				if res.Accepted < 0.92*res.Injected {
					break
				}
			}
			if i == 0 {
				fmt.Printf("### %s: bubble-period=%-2d zero-load=%.0fns ITB-RR saturation=%.4f\n",
					b.Name(), period, lat0, best)
			}
		}
	}
}

// BenchmarkIrregularNetworks evaluates UP/DOWN vs ITB-RR on random
// irregular NOW topologies — the setting the in-transit buffer mechanism
// was originally proposed for (the paper's references [5] and [6]) and the
// motivation of its introduction. Reported: saturation throughput per
// scheme for several random 16-switch networks.
func BenchmarkIrregularNetworks(b *testing.B) {
	pre := experiments.PresetFor(benchScale(b))
	for i := 0; i < b.N; i++ {
		for _, seed := range []int64{1, 2, 3} {
			net, err := topology.NewRandomIrregular(16, 4, 2, 16, seed)
			if err != nil {
				b.Fatal(err)
			}
			dest, err := traffic.Uniform(net.NumHosts())
			if err != nil {
				b.Fatal(err)
			}
			sats := map[routes.Scheme]float64{}
			for _, sch := range []routes.Scheme{routes.UpDown, routes.ITBRR} {
				tab, err := routes.Build(net, routes.DefaultConfig(sch))
				if err != nil {
					b.Fatal(err)
				}
				best := 0.0
				for _, load := range []float64{0.01, 0.02, 0.03, 0.045, 0.06, 0.08, 0.10, 0.12} {
					res, err := netsim.Run(netsim.Config{
						Net: net, Table: tab.Clone(), Dest: dest,
						Load: load, MessageBytes: 512, Seed: 1,
						WarmupMessages: pre.Warmup, MeasureMessages: pre.Measure,
						MaxCycles: pre.MaxCycles,
					})
					if err != nil {
						b.Fatal(err)
					}
					if res.Accepted > best {
						best = res.Accepted
					}
					if res.Accepted < 0.92*res.Injected {
						break
					}
				}
				sats[sch] = best
			}
			if i == 0 {
				fmt.Printf("### %s: irregular seed=%d UP/DOWN=%.4f ITB-RR=%.4f ratio=%.2fx\n",
					b.Name(), seed, sats[routes.UpDown], sats[routes.ITBRR],
					sats[routes.ITBRR]/sats[routes.UpDown])
			}
		}
	}
}

// BenchmarkFaultReconfiguration exercises the full MCP maintenance loop of
// §2: measure throughput, fail a switch, re-map the surviving network with
// the prober, rebuild the ITB-RR routing tables on the reconstruction, and
// measure again. The degraded network must still route deadlock-free and
// retain most of its throughput (a torus is 4-connected).
func BenchmarkFaultReconfiguration(b *testing.B) {
	e := benchEnv(b, experiments.TopoTorus)
	pre := experiments.PresetFor(e.Scale)
	loads := experiments.DefaultLoads(experiments.TopoTorus, e.Scale)
	load := loads[len(loads)/2]
	run := func(net *topology.Network) float64 {
		tab, err := routes.Build(net, routes.DefaultConfig(routes.ITBRR))
		if err != nil {
			b.Fatal(err)
		}
		dest, err := traffic.Uniform(net.NumHosts())
		if err != nil {
			b.Fatal(err)
		}
		res, err := netsim.Run(netsim.Config{
			Net: net, Table: tab, Dest: dest,
			Load: load, MessageBytes: 512, Seed: 1,
			WarmupMessages: pre.Warmup, MeasureMessages: pre.Measure,
			MaxCycles: pre.MaxCycles,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res.Accepted
	}
	for i := 0; i < b.N; i++ {
		prober := &mapper.NetworkProber{Net: e.Net, MapperHost: 0, Salt: 99}
		before, err := mapper.Discover(prober)
		if err != nil {
			b.Fatal(err)
		}
		accBefore := run(before.Net)
		prober.Faults.FailSwitch(e.Net.Switches / 2)
		after, err := mapper.Discover(prober)
		if err != nil {
			b.Fatal(err)
		}
		accAfter := run(after.Net)
		if i == 0 {
			c := mapper.Diff(before, after)
			fmt.Printf("### %s: accepted %.4f -> %.4f after losing %d switch(es), %d host(s)\n",
				b.Name(), accBefore, accAfter, len(c.SwitchesLost), len(c.HostsLost))
			b.ReportMetric(accAfter/accBefore, "retained")
		}
	}
}

// BenchmarkAllToAllExchange measures a message-level workload: a
// personalized all-to-all exchange (the communication core of the parallel
// numerical algorithms whose permutations motivate the paper's bit-reversal
// pattern), run through the GM-style message layer with MTU segmentation.
// Reported: total exchange completion time per routing scheme.
func BenchmarkAllToAllExchange(b *testing.B) {
	e := benchEnv(b, experiments.TopoTorus)
	const blockBytes, mtu = 2048, 1024
	for i := 0; i < b.N; i++ {
		for _, sch := range []routes.Scheme{routes.UpDown, routes.ITBRR} {
			tab, err := e.Table(sch)
			if err != nil {
				b.Fatal(err)
			}
			layer, err := gm.New(gm.Config{
				Net: e.Net, Table: tab.Clone(), MTU: mtu, MaxCycles: 500_000_000,
			})
			if err != nil {
				b.Fatal(err)
			}
			n := e.Net.NumHosts()
			for src := 0; src < n; src++ {
				for dst := 0; dst < n; dst++ {
					if src == dst {
						continue
					}
					if _, err := layer.Send(src, dst, blockBytes); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := layer.Drain(); err != nil {
				b.Fatal(err)
			}
			st := layer.Stats()
			if i == 0 {
				fmt.Printf("### %s: %-8s %d hosts x %dB blocks: completion %.1f us\n",
					b.Name(), sch, n, blockBytes, st.MaxLatencyNs/1000)
				b.ReportMetric(st.MaxLatencyNs/1000, fmt.Sprintf("us-%s", sch))
			}
		}
	}
}

// BenchmarkAblationMessageSize checks §4.2's claim that 32-, 512-, and
// 1024-byte messages give qualitatively similar results: ITB-RR should beat
// UP/DOWN at every size.
func BenchmarkAblationMessageSize(b *testing.B) {
	e := benchEnv(b, experiments.TopoTorus)
	loads := experiments.DefaultLoads(experiments.TopoTorus, e.Scale)
	for i := 0; i < b.N; i++ {
		for _, size := range []int{32, 512, 1024} {
			var sats []float64
			for _, sch := range []routes.Scheme{routes.UpDown, routes.ITBRR} {
				c, err := experiments.Sweep(e, sch, experiments.Pattern{Kind: "uniform"}, loads, size, 1, runner.Spec{})
				if err != nil {
					b.Fatal(err)
				}
				sats = append(sats, c.SaturationThroughput())
			}
			if i == 0 {
				ratio := 0.0
				if sats[0] > 0 {
					ratio = sats[1] / sats[0]
				}
				fmt.Printf("### %s: %4dB UD=%.4f RR=%.4f ratio=%.2fx\n", b.Name(), size, sats[0], sats[1], ratio)
				b.ReportMetric(ratio, fmt.Sprintf("RR/UD@%dB", size))
			}
		}
	}
}

// BenchmarkRunnerParallelFigure7 measures the wall-clock of one full
// latency figure (3 scheme curves, torus, uniform) executed through the
// experiment runner sequentially versus with one worker per CPU. The
// speedup is bounded by the host's core count — on a single-core box the
// two variants coincide; EXPERIMENTS.md records measured numbers.
func BenchmarkRunnerParallelFigure7(b *testing.B) {
	e := benchEnv(b, experiments.TopoTorus)
	loads := experiments.DefaultLoads(experiments.TopoTorus, e.Scale)
	for _, par := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cs, err := experiments.LatencyFigure(e, experiments.Pattern{Kind: "uniform"},
					loads, 512, 1, runner.Spec{Parallel: par})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					sat := cs.Saturation()
					b.ReportMetric(sat[2], "RRsat")
				}
			}
		})
	}
}
