package metrics

import (
	"bytes"
	"strings"
	"testing"
)

// driveCollector runs a synthetic measurement period: `channels` links where
// channel ch carries ch flits per cycle... simplified: busy counter grows by
// ch*windowCycles per window so WindowFrac is exactly float64(ch scaled).
func driveCollector(t *testing.T, cfg Config, windows int) (*Collector, *Metrics) {
	t.Helper()
	const channels, switches, hosts = 3, 2, 2
	c := NewCollector(cfg, channels, switches, hosts)
	c.Start(100)
	// Warmup totals predate the measurement window; priming keeps them out
	// of the first window's deltas.
	delivered, dropped, retrans := int64(1000), int64(5), int64(2)
	c.PrimeTraffic(delivered, dropped, retrans)
	busy := make([]int64, channels)
	cycle := int64(100)
	for w := 0; w < windows; w++ {
		cycle = c.NextSample()
		for ch := 0; ch < channels; ch++ {
			busy[ch] += int64(ch) * c.windowCycles / 4 // utilization ch/4
			c.SampleLink(ch, busy[ch])
		}
		c.SampleSwitchOcc(0, 5)
		c.SampleSwitchOcc(1, w) // varies: peak = windows-1
		c.SampleHostPool(0, 1024)
		c.SampleHostPool(1, 0)
		delivered += 10
		dropped += int64(w)
		retrans++
		c.SampleTraffic(delivered, dropped, retrans)
		c.CloseWindow(cycle)
	}
	c.Eject(1)
	c.Eject(1)
	c.Reinject(1)
	c.BackpressureStalls(0, 1)
	measured := cycle - 100
	m := c.Finalize(measured, 6.25,
		func(ch int) (int, int) { return ch, ch + 1 },
		func(ch int) (int64, int64) { return busy[ch], int64(ch) })
	return c, m
}

func TestCollectorWindowsAndFinalize(t *testing.T) {
	_, m := driveCollector(t, Config{WindowCycles: 64, MaxWindows: 512}, 10)
	if m.Windows != 10 || m.WindowCycles != 64 {
		t.Fatalf("got %d windows of %d cycles, want 10 of 64", m.Windows, m.WindowCycles)
	}
	if m.MeasuredCycles != 640 {
		t.Fatalf("measured %d cycles, want 640", m.MeasuredCycles)
	}
	if len(m.Links) != 3 || len(m.Switches) != 2 || len(m.Hosts) != 2 {
		t.Fatalf("unexpected shapes: %d links %d switches %d hosts",
			len(m.Links), len(m.Switches), len(m.Hosts))
	}
	for ch, lm := range m.Links {
		want := float64(ch) / 4
		if lm.BusyFrac != want {
			t.Errorf("link %d BusyFrac = %g, want %g", ch, lm.BusyFrac, want)
		}
		if lm.PeakWindowFrac != want {
			t.Errorf("link %d PeakWindowFrac = %g, want %g", ch, lm.PeakWindowFrac, want)
		}
		if len(lm.Window) != 10 {
			t.Fatalf("link %d series length %d", ch, len(lm.Window))
		}
		for w, frac := range lm.Window {
			if frac != want {
				t.Errorf("link %d window %d = %g, want %g", ch, w, frac, want)
			}
		}
		if lm.From != ch || lm.To != ch+1 {
			t.Errorf("link %d endpoints (%d,%d)", ch, lm.From, lm.To)
		}
	}
	if m.Switches[0].MeanBufFlits != 5 || m.Switches[0].PeakBufFlits != 5 {
		t.Errorf("switch 0 occupancy %+v", m.Switches[0])
	}
	if m.Switches[1].PeakBufFlits != 9 {
		t.Errorf("switch 1 peak %d, want 9", m.Switches[1].PeakBufFlits)
	}
	h := m.Hosts[1]
	if h.Ejects != 2 || h.Reinjects != 1 || h.MeanPoolBytes != 0 {
		t.Errorf("host 1 metrics %+v", h)
	}
	if m.Hosts[0].BackpressureCycles != 1 || m.Hosts[0].MeanPoolBytes != 1024 {
		t.Errorf("host 0 metrics %+v", m.Hosts[0])
	}
}

func TestTrafficSeries(t *testing.T) {
	_, m := driveCollector(t, Config{WindowCycles: 64, MaxWindows: 512}, 10)
	tr := m.Traffic
	if tr == nil {
		t.Fatal("no traffic series collected")
	}
	if len(tr.Delivered) != 10 || len(tr.Dropped) != 10 || len(tr.Retransmits) != 10 {
		t.Fatalf("series lengths %d/%d/%d, want 10", len(tr.Delivered), len(tr.Dropped), len(tr.Retransmits))
	}
	for w := 0; w < 10; w++ {
		if tr.Delivered[w] != 10 {
			t.Errorf("window %d delivered %d, want 10 (priming leaked warmup?)", w, tr.Delivered[w])
		}
		if tr.Dropped[w] != int64(w) {
			t.Errorf("window %d dropped %d, want %d", w, tr.Dropped[w], w)
		}
		if tr.Retransmits[w] != 1 {
			t.Errorf("window %d retransmits %d, want 1", w, tr.Retransmits[w])
		}
	}

	// Rebinning merges traffic windows pairwise, preserving totals.
	_, r := driveCollector(t, Config{WindowCycles: 64, MaxWindows: 4}, 16)
	if r.Traffic == nil || len(r.Traffic.Delivered) != r.Windows {
		t.Fatalf("rebinned traffic series missing or misshapen: %+v", r.Traffic)
	}
	var total int64
	for _, d := range r.Traffic.Delivered {
		total += d
	}
	if total != 160 {
		t.Errorf("rebinned delivered total %d, want 160", total)
	}

	// Aggregation sums counts across replicas of the same shape.
	_, a := driveCollector(t, Config{WindowCycles: 64, MaxWindows: 512}, 10)
	_, b := driveCollector(t, Config{WindowCycles: 64, MaxWindows: 512}, 10)
	g := Aggregate([]*Metrics{a, b})
	if g.Traffic == nil {
		t.Fatal("aggregation dropped the traffic series of same-shape replicas")
	}
	if g.Traffic.Delivered[0] != 20 || g.Traffic.Retransmits[0] != 2 {
		t.Errorf("aggregated traffic window 0: %+v", g.Traffic)
	}
	if a.Traffic.Delivered[0] != 10 {
		t.Error("Aggregate modified its inputs")
	}
}

func TestCollectorRebin(t *testing.T) {
	// MaxWindows 4: every time the series fills it rebins to 2 windows of
	// double width, so 16 sampled windows starting at 64 cycles end as
	// 2 windows of 8192 cycles (seven doublings), spanning the whole run.
	_, m := driveCollector(t, Config{WindowCycles: 64, MaxWindows: 4}, 16)
	if m.Windows != 2 || m.WindowCycles != 8192 {
		t.Fatalf("got %d windows of %d cycles, want 2 of 8192", m.Windows, m.WindowCycles)
	}
	// Constant per-window utilization survives rebinning unchanged, and the
	// peak keeps its value from the original resolution.
	lm := m.Links[2]
	want := 0.5
	for w, frac := range lm.Window {
		if frac != want {
			t.Errorf("rebinned window %d = %g, want %g", w, frac, want)
		}
	}
	if lm.PeakWindowFrac != want {
		t.Errorf("peak after rebin = %g, want %g", lm.PeakWindowFrac, want)
	}
}

func TestFinalizeIncludesTail(t *testing.T) {
	// Totals passed to Finalize cover flits carried after the last complete
	// window; BusyFrac must use them, not the last boundary snapshot.
	c := NewCollector(Config{WindowCycles: 100, MaxWindows: 8}, 1, 0, 0)
	c.Start(0)
	c.SampleLink(0, 50)
	c.CloseWindow(100)
	// 30 more cycles, 30 more busy cycles, no window boundary reached.
	m := c.Finalize(130, 6.25,
		func(int) (int, int) { return 0, 1 },
		func(int) (int64, int64) { return 80, 0 })
	want := 80.0 / 130
	if m.Links[0].BusyFrac != want {
		t.Errorf("BusyFrac = %g, want %g (tail dropped?)", m.Links[0].BusyFrac, want)
	}
}

func TestAggregate(t *testing.T) {
	_, a := driveCollector(t, Config{WindowCycles: 64, MaxWindows: 512}, 10)
	_, b := driveCollector(t, Config{WindowCycles: 64, MaxWindows: 512}, 10)
	a.Latency = NewHistogram()
	a.Latency.Record(100)
	b.Latency = NewHistogram()
	b.Latency.Record(300)

	g := Aggregate([]*Metrics{a, nil, b})
	if g.Replicas != 2 {
		t.Fatalf("Replicas = %d, want 2", g.Replicas)
	}
	// Identical replicas: averages equal the per-replica values, counts double.
	if g.Links[2].BusyFrac != a.Links[2].BusyFrac {
		t.Errorf("aggregated BusyFrac %g, want %g", g.Links[2].BusyFrac, a.Links[2].BusyFrac)
	}
	if len(g.Links[2].Window) != 10 || g.Links[2].Window[0] != a.Links[2].Window[0] {
		t.Errorf("aggregated window series %v", g.Links[2].Window)
	}
	if g.Hosts[1].Ejects != 4 || g.Hosts[1].Reinjects != 2 {
		t.Errorf("aggregated host counts %+v", g.Hosts[1])
	}
	if g.Latency.Count() != 2 || g.Latency.Sum() != 400 {
		t.Errorf("aggregated latency histogram count %d sum %g", g.Latency.Count(), g.Latency.Sum())
	}
	// Inputs untouched.
	if a.Latency.Count() != 1 || a.Hosts[1].Ejects != 2 {
		t.Error("Aggregate modified its inputs")
	}

	// Mismatched window shapes: series dropped, scalars still averaged.
	_, c := driveCollector(t, Config{WindowCycles: 64, MaxWindows: 4}, 16)
	g2 := Aggregate([]*Metrics{a, c})
	if g2.Links[2].Window != nil {
		t.Error("mismatched shapes should drop the window series")
	}
	if g2.Links[2].BusyFrac != a.Links[2].BusyFrac {
		t.Errorf("scalar average wrong under shape mismatch: %g", g2.Links[2].BusyFrac)
	}

	if Aggregate(nil) != nil || Aggregate([]*Metrics{nil}) != nil {
		t.Error("empty aggregation should be nil")
	}
	if Aggregate([]*Metrics{a}) != a {
		t.Error("single-input aggregation should return the input")
	}
}

func TestExportDeterministic(t *testing.T) {
	_, m := driveCollector(t, Config{WindowCycles: 64, MaxWindows: 512}, 4)
	m.Latency = NewHistogram()
	m.NetLatency = NewHistogram()
	for i := 1; i <= 50; i++ {
		m.Latency.Record(float64(i * 13))
		m.NetLatency.Record(float64(i * 11))
	}
	pts := []ExportPoint{{Label: "t", Scheme: "updown", Pattern: "uniform", Load: 0.02, Metrics: m}}
	var j1, j2, c1, c2 bytes.Buffer
	if err := WriteJSON(&j1, pts); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&j2, pts); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&c1, pts); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&c2, pts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Error("JSON export not byte-identical across calls")
	}
	if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
		t.Error("CSV export not byte-identical across calls")
	}
	if !strings.Contains(j1.String(), "\"schema_version\": 1") {
		t.Error("JSON export missing schema_version")
	}
	head := strings.SplitN(c1.String(), "\n", 2)[0]
	if head != strings.Join(CSVHeader, ",") {
		t.Errorf("CSV header = %q", head)
	}
	for _, rec := range []string{"run,", "link,", "link_window,", "switch,", "host,", "traffic_window,", "latency,", "net_latency,", "latency_bucket,"} {
		if !strings.Contains(c1.String(), "\n"+rec) {
			t.Errorf("CSV export missing %q records", rec)
		}
	}
}

// driveVCCollector runs a synthetic VC measurement: lane v holds a constant
// 10*(v+1) flits network-wide at every boundary.
func driveVCCollector(t *testing.T, cfg Config, numVCs, windows int) *Metrics {
	t.Helper()
	c := NewCollector(cfg, 1, 1, 1)
	c.EnableVCs(numVCs)
	c.Start(0)
	var busy int64
	cycle := int64(0)
	for w := 0; w < windows; w++ {
		cycle = c.NextSample()
		busy += c.windowCycles / 2
		c.SampleLink(0, busy)
		c.SampleSwitchOcc(0, 0)
		c.SampleHostPool(0, 0)
		for v := 0; v < numVCs; v++ {
			c.SampleVCOcc(v, 10*(v+1))
		}
		c.CloseWindow(cycle)
	}
	return c.Finalize(cycle, 6.25,
		func(int) (int, int) { return 0, 1 },
		func(int) (int64, int64) { return busy, 0 })
}

func TestVCOccupancySeries(t *testing.T) {
	m := driveVCCollector(t, Config{WindowCycles: 64, MaxWindows: 512}, 3, 8)
	if len(m.VCs) != 3 {
		t.Fatalf("got %d VC entries, want 3", len(m.VCs))
	}
	for v, vm := range m.VCs {
		want := float64(10 * (v + 1))
		if vm.VC != v || vm.MeanBufFlits != want || vm.PeakBufFlits != int(want) {
			t.Errorf("lane %d: %+v, want mean/peak %g", v, vm, want)
		}
		if len(vm.Window) != 8 {
			t.Fatalf("lane %d: %d windows, want 8", v, len(vm.Window))
		}
		for w, got := range vm.Window {
			if got != want {
				t.Errorf("lane %d window %d = %g, want %g", v, w, got, want)
			}
		}
	}
}

func TestVCOccupancyRebin(t *testing.T) {
	// 16 windows into MaxWindows 4: repeated rebinning merges point samples;
	// a constant occupancy must survive the sample-sum/vcFactor division
	// unchanged.
	m := driveVCCollector(t, Config{WindowCycles: 64, MaxWindows: 4}, 2, 16)
	if m.Windows != 2 {
		t.Fatalf("got %d windows, want 2", m.Windows)
	}
	for v, vm := range m.VCs {
		want := float64(10 * (v + 1))
		for w, got := range vm.Window {
			if got != want {
				t.Errorf("lane %d rebinned window %d = %g, want %g", v, w, got, want)
			}
		}
	}
}

func TestVCOccupancyAggregate(t *testing.T) {
	a := driveVCCollector(t, Config{WindowCycles: 64, MaxWindows: 512}, 2, 4)
	b := driveVCCollector(t, Config{WindowCycles: 64, MaxWindows: 512}, 2, 4)
	g := Aggregate([]*Metrics{a, b})
	if len(g.VCs) != 2 {
		t.Fatalf("aggregated VC entries: %d, want 2", len(g.VCs))
	}
	if g.VCs[1].MeanBufFlits != 20 || g.VCs[1].PeakBufFlits != 20 {
		t.Errorf("aggregated lane 1: %+v", g.VCs[1])
	}
	if len(g.VCs[1].Window) != 4 || g.VCs[1].Window[0] != 20 {
		t.Errorf("aggregated lane 1 window: %v", g.VCs[1].Window)
	}
	// A stop & go replica (no VCs) mixed in drops the section.
	c := driveCollector2(t)
	if g2 := Aggregate([]*Metrics{a, c}); g2.VCs != nil {
		t.Error("mixed VC/non-VC aggregation should drop the VC section")
	}
}

// driveCollector2 is a minimal non-VC replica for the mixed-aggregation case.
func driveCollector2(t *testing.T) *Metrics {
	t.Helper()
	c := NewCollector(Config{WindowCycles: 64, MaxWindows: 512}, 1, 1, 1)
	c.Start(0)
	cycle := c.NextSample()
	c.SampleLink(0, 32)
	c.SampleSwitchOcc(0, 0)
	c.SampleHostPool(0, 0)
	c.CloseWindow(cycle)
	return c.Finalize(cycle, 6.25,
		func(int) (int, int) { return 0, 1 },
		func(int) (int64, int64) { return 32, 0 })
}
