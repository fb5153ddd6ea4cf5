package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"itbsim/internal/netsim"
	"itbsim/internal/routes"
	"itbsim/internal/runner"
	"itbsim/internal/stats"
	"itbsim/internal/topology"
)

// AllSchemes is the comparison set of every figure and table: the original
// Myrinet routing and the two ITB path-selection policies.
var AllSchemes = []routes.Scheme{routes.UpDown, routes.ITBSP, routes.ITBRR}

// CurveSet is one latency/traffic figure: one curve per routing scheme.
type CurveSet struct {
	Topo    string
	Pattern Pattern
	Curves  []stats.Curve
}

// LatencyFigure produces the three curves of one latency-vs-accepted-traffic
// figure (figures 7, 10, and 12 of the paper): the scheme curves run as
// independent jobs of one runner spec.
func LatencyFigure(e *Env, p Pattern, loads []float64, msgBytes int, seed int64, base runner.Spec) (CurveSet, error) {
	cs := CurveSet{Topo: e.Topo, Pattern: p}
	rep, err := runner.Run(SpecFor(e, AllSchemes, []Pattern{p}, loads, msgBytes, seed, base))
	if rep != nil {
		for i := range rep.Curves {
			cs.Curves = append(cs.Curves, rep.Curves[i].Curve)
		}
	}
	if err != nil {
		return cs, fmt.Errorf("latency figure: %w", err)
	}
	return cs, nil
}

// String renders every curve plus the saturation summary row.
func (cs CurveSet) String() string {
	var b strings.Builder
	for _, c := range cs.Curves {
		b.WriteString(c.Table())
	}
	b.WriteString("# saturation throughput (flits/ns/switch): ")
	for i, c := range cs.Curves {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%.4f", AllSchemes[i], c.SaturationThroughput())
	}
	b.WriteByte('\n')
	return b.String()
}

// Saturation returns each scheme's saturation throughput, indexed like
// AllSchemes.
func (cs CurveSet) Saturation() []float64 {
	out := make([]float64, len(cs.Curves))
	for i, c := range cs.Curves {
		out[i] = c.SaturationThroughput()
	}
	return out
}

// LinkUtilResult is one utilization snapshot (figures 8, 9, 11).
type LinkUtilResult struct {
	Scheme routes.Scheme
	Load   float64
	Report stats.LinkUtilReport
	// Busy is the raw per-channel utilization, for rendering.
	Busy []float64
	// Grid is a per-switch heat map for grid topologies; empty otherwise.
	Grid string
	// Result is the full simulation result behind the snapshot (including
	// Result.Metrics when collection was requested).
	Result *netsim.Result
}

// LinkUtilSnapshot runs the schemes at one load with per-channel
// accounting: one runner spec with CollectLinkUtil, one single-point curve
// per scheme. It returns a snapshot per scheme, reporting its topN hottest
// links, and the runner report behind them.
func LinkUtilSnapshot(e *Env, schemes []routes.Scheme, p Pattern, load float64, msgBytes int, seed int64, topN int, base runner.Spec) ([]LinkUtilResult, *runner.Report, error) {
	base.CollectLinkUtil = true
	rep, err := runner.Run(SpecFor(e, schemes, []Pattern{p}, []float64{load}, msgBytes, seed, base))
	if err != nil {
		return nil, rep, fmt.Errorf("link utilization: %w", err)
	}
	rows, cols, grid := GridShape(e)
	out := make([]LinkUtilResult, len(rep.Curves))
	for i := range rep.Curves {
		res := rep.Curves[i].Curve.Points[0].Result
		out[i] = LinkUtilResult{Scheme: rep.Curves[i].Job.Scheme, Load: load, Busy: res.LinkBusy, Result: res,
			Report: stats.AnalyzeLinkUtil(e.Net, res.LinkBusy, RootSwitch(e.Net), topN)}
		if grid {
			out[i].Grid = stats.UtilGrid(e.Net, res.LinkBusy, rows, cols)
		}
	}
	return out, rep, nil
}

// LinkUtilFromBusy renders a utilization report (plus grid heat map for the
// tori) from a run's per-channel busy fractions.
func LinkUtilFromBusy(e *Env, busy []float64) (string, error) {
	rep := stats.AnalyzeLinkUtil(e.Net, busy, 0, 10)
	out := rep.String()
	if rows, cols, ok := GridShape(e); ok {
		out += "per-switch max outgoing utilization (%):\n" + stats.UtilGrid(e.Net, busy, rows, cols)
	}
	return out, nil
}

// GridShape returns the row-major grid dimensions of the environment's
// topology, for rendering (tori only).
func GridShape(e *Env) (rows, cols int, ok bool) {
	switch e.Topo {
	case TopoTorus, TopoExpress:
		switch e.Scale {
		case ScaleSmall:
			return 4, 4, true
		default:
			return 8, 8, true
		}
	}
	return 0, 0, false
}

// HotspotRow is one line of tables 1–3: a hotspot location and the
// saturation throughput of each scheme, indexed like AllSchemes.
type HotspotRow struct {
	Location   int
	Throughput []float64
}

// HotspotBattery reproduces one fraction column of tables 1–3: nLocations
// random hotspot hosts, and for each location and scheme the saturation
// throughput under the hotspot pattern. Locations are drawn deterministically
// from the seed, as the paper draws its "10 different hotspot locations".
// The nLocations × len(AllSchemes) sweeps run as independent jobs of one
// runner spec, sharing one routing-table build per scheme; the runner
// report behind the rows is returned with them.
func HotspotBattery(e *Env, fraction float64, nLocations int, loads []float64, msgBytes int, seed int64, base runner.Spec) ([]HotspotRow, *runner.Report, error) {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]HotspotRow, 0, nLocations)
	pats := make([]Pattern, 0, nLocations)
	seen := map[int]bool{}
	for len(rows) < nLocations {
		h := rng.Intn(e.Net.NumHosts())
		if seen[h] {
			continue
		}
		seen[h] = true
		rows = append(rows, HotspotRow{Location: h, Throughput: make([]float64, len(AllSchemes))})
		pats = append(pats, Pattern{Kind: "hotspot", HotspotHost: h, HotspotFraction: fraction})
	}
	rep, err := runner.Run(SpecFor(e, AllSchemes, pats, loads, msgBytes, seed, base))
	if err != nil {
		return nil, rep, fmt.Errorf("hotspot battery: %w", err)
	}
	for i := range rep.Curves {
		cr := &rep.Curves[i]
		rows[cr.Job.PatternIdx].Throughput[cr.Job.SchemeIdx] = cr.Curve.SaturationThroughput()
	}
	return rows, rep, nil
}

// HotspotAverages reduces a battery to its "Avg" table row.
func HotspotAverages(rows []HotspotRow) []float64 {
	if len(rows) == 0 {
		return nil
	}
	avg := make([]float64, len(rows[0].Throughput))
	for _, r := range rows {
		for i, v := range r.Throughput {
			avg[i] += v
		}
	}
	for i := range avg {
		avg[i] /= float64(len(rows))
	}
	return avg
}

// FormatHotspotTable renders rows the way tables 1–3 print them.
func FormatHotspotTable(fraction float64, rows []HotspotRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# hotspot %.0f%%: location  U/D      ITB-SP   ITB-RR\n", 100*fraction)
	for i, r := range rows {
		fmt.Fprintf(&b, "%-2d (host %3d)  ", i+1, r.Location)
		for _, v := range r.Throughput {
			fmt.Fprintf(&b, "%.4f   ", v)
		}
		b.WriteByte('\n')
	}
	avg := HotspotAverages(rows)
	b.WriteString("Avg            ")
	for _, v := range avg {
		fmt.Fprintf(&b, "%.4f   ", v)
	}
	b.WriteByte('\n')
	return b.String()
}

// StaticRouteReport reproduces the static route statistics quoted in
// §4.7.1 (minimal-path fraction, average distances, ITBs per route) for all
// three schemes on a network.
func StaticRouteReport(e *Env) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s (%s): static route statistics\n", e.Topo, e.Scale)
	fmt.Fprintf(&b, "%-8s %9s %8s %8s %6s\n", "scheme", "minimal%", "avgdist", "avgITBs", "alts")
	for _, sch := range AllSchemes {
		tab, err := e.Table(sch)
		if err != nil {
			return "", err
		}
		st := tab.ComputeStats()
		fmt.Fprintf(&b, "%-8s %8.1f%% %8.2f %8.2f %6d\n",
			sch.String(), 100*st.MinimalFraction, st.AvgDistance, st.AvgITBs, st.MaxAlternatives)
	}
	return b.String(), nil
}

// RootSwitch returns the up*/down* root used by the experiments (switch 0,
// the top-left switch of the tori, matching the paper's figures).
func RootSwitch(net *topology.Network) int { return 0 }
