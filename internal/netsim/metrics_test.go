package netsim

import (
	"math"
	"testing"

	"itbsim/internal/metrics"
	"itbsim/internal/routes"
)

// TestMetricsDoNotPerturbResults runs the same configuration with and
// without the observability collector: every simulation-visible measurement
// must be bit-identical, since collection only reads state.
func TestMetricsDoNotPerturbResults(t *testing.T) {
	net := makeNet(t, 4, 4, 2)

	run := func(mc *metrics.Config) *Result {
		// A fresh table per run: ITB-RR keeps round-robin selection state,
		// so sharing one table would make the runs diverge on their own.
		tab := makeTable(t, net, routes.ITBRR)
		cfg := baseConfig(net, tab)
		cfg.Load = 0.03
		cfg.Metrics = mc
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off := run(nil)
	on := run(&metrics.Config{WindowCycles: 512})

	if off.Metrics != nil {
		t.Fatal("Result.Metrics set without Config.Metrics")
	}
	if on.Metrics == nil {
		t.Fatal("Result.Metrics nil with Config.Metrics set")
	}
	if off.AvgLatencyNs != on.AvgLatencyNs ||
		off.Accepted != on.Accepted ||
		off.Cycles != on.Cycles ||
		off.DeliveredMeasured != on.DeliveredMeasured ||
		off.LatencyP99Ns != on.LatencyP99Ns {
		t.Errorf("metrics collection perturbed the run:\noff %+v\non  %+v", off, on)
	}
}

// TestMetricsContents sanity-checks the collected telemetry against the
// run's own coarse measurements.
func TestMetricsContents(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	tab := makeTable(t, net, routes.ITBRR)
	cfg := baseConfig(net, tab)
	cfg.Load = 0.03
	cfg.CollectLinkUtil = true
	cfg.Metrics = &metrics.Config{WindowCycles: 512}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if len(m.Links) != net.NumChannels() || len(m.Switches) != net.Switches || len(m.Hosts) != net.NumHosts() {
		t.Fatalf("telemetry shapes: %d links %d switches %d hosts", len(m.Links), len(m.Switches), len(m.Hosts))
	}
	if m.Windows == 0 {
		t.Error("no sampling windows closed over the measurement period")
	}
	// Whole-run link fractions must agree with the legacy CollectLinkUtil
	// accounting (same counters, same denominator).
	for c, lm := range m.Links {
		if lm.BusyFrac != res.LinkBusy[c] || lm.StoppedFrac != res.LinkStopped[c] {
			t.Fatalf("link %d fractions diverge from CollectLinkUtil: %g/%g vs %g/%g",
				c, lm.BusyFrac, lm.StoppedFrac, res.LinkBusy[c], res.LinkStopped[c])
		}
		if lm.BusyFrac > 0 && lm.PeakWindowFrac == 0 {
			t.Errorf("link %d busy but peak window zero", c)
		}
		for _, w := range lm.Window {
			if w < 0 || w > 1.0001 {
				t.Errorf("link %d window utilization %g out of range", c, w)
			}
		}
	}
	// ITB-RR on a torus ejects and re-injects; measured totals must agree
	// with the per-message average within re-injections still in flight.
	var ejects, reinjects int64
	for _, hm := range m.Hosts {
		ejects += hm.Ejects
		reinjects += hm.Reinjects
	}
	if ejects == 0 || reinjects == 0 {
		t.Errorf("no ITB activity recorded under ITB-RR (ejects %d reinjects %d)", ejects, reinjects)
	}
	// The latency histogram backs the Result percentiles exactly.
	if m.Latency == nil || m.Latency.Count() != uint64(res.DeliveredMeasured) {
		t.Fatalf("latency histogram count mismatch")
	}
	if m.Latency.Quantile(0.99) != res.LatencyP99Ns || m.Latency.Max() != res.MaxLatencyNs {
		t.Error("Result percentiles diverge from the latency histogram")
	}
	if math.Abs(m.Latency.Mean()-res.AvgLatencyNs) > 1e-9 {
		t.Error("Result mean diverges from the latency histogram")
	}
}

// backpressureConfig drives the 4x4 UP/DOWN torus far past saturation, so
// source queues fill (injection backpressure) and links sit stopped by
// stop & go flow control with packets waiting to advance.
func backpressureConfig(t testing.TB) Config {
	t.Helper()
	net := makeNet(t, 4, 4, 2)
	tab := makeTable(t, net, routes.UpDown)
	cfg := baseConfig(net, tab)
	cfg.Load = 0.5 // far beyond up*/down* saturation on a 4x4 torus
	cfg.WarmupMessages = 20
	cfg.MeasureMessages = 100
	cfg.CollectLinkUtil = true
	cfg.Metrics = &metrics.Config{WindowCycles: 256}
	return cfg
}

// stallTotals sums a run's backpressure cycles over hosts and its
// stop & go idle fractions over channels.
func stallTotals(res *Result) (backpressure int64, stopped float64) {
	for _, hm := range res.Metrics.Hosts {
		backpressure += hm.BackpressureCycles
	}
	for _, f := range res.LinkStopped {
		stopped += f
	}
	return backpressure, stopped
}

// TestMetricsBackpressurePastSaturation drives a small network far past
// saturation and expects injection backpressure stalls to be recorded.
func TestMetricsBackpressurePastSaturation(t *testing.T) {
	res, err := Run(backpressureConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if stalls, _ := stallTotals(res); stalls == 0 {
		t.Error("no backpressure stalls recorded far past saturation")
	}
}
