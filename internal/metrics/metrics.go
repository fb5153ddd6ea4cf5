// Package metrics is the network observability layer of the simulator: a
// low-overhead collector for per-link utilization time series, per-switch
// input-buffer occupancy, per-host in-transit-buffer (ITB) activity and
// injection backpressure, plus streaming log-bucketed latency histograms
// with percentile extraction.
//
// The package is deliberately free of simulator dependencies: internal/netsim
// drives a Collector through narrow sampling hooks, and internal/runner
// aggregates the resulting Metrics across replicas. Everything is
// deterministic — sampling is keyed to simulation cycles, never wall clock —
// so metrics are byte-identical across worker counts and runs.
//
// Collection is sampled, not traced: cumulative hardware-style counters
// (flits on a link, buffer occupancy, pool bytes) are snapshotted once per
// window of WindowCycles cycles, so the per-cycle cost is one comparison
// and the per-window cost is linear in the network size. Event counters
// (ejects, re-injections, backpressure stalls) are plain slice increments
// at event rate. The exported telemetry schema (JSON and CSV) is documented
// field by field in docs/METRICS.md.
package metrics

// Config enables and tunes the collector. The zero value of each field
// means "use the default"; a nil *Config disables collection entirely.
type Config struct {
	// WindowCycles is the sampling window width in simulator cycles.
	// Cumulative link counters are snapshotted every window, giving the
	// per-link utilization time series. Default 8192 cycles (51.2 µs at
	// the Myrinet 6.25 ns cycle).
	WindowCycles int64

	// MaxWindows bounds the retained series length. When the run outgrows
	// it, adjacent windows are merged pairwise and WindowCycles doubles —
	// memory stays bounded while the series still spans the whole
	// measurement period. Default 512. Values are rounded up to even.
	MaxWindows int
}

// DefaultWindowCycles is the default sampling window (51.2 µs at 6.25 ns
// per cycle).
const DefaultWindowCycles = 8192

// DefaultMaxWindows is the default retained-series bound.
const DefaultMaxWindows = 512

func (c Config) windowCycles() int64 {
	if c.WindowCycles > 0 {
		return c.WindowCycles
	}
	return DefaultWindowCycles
}

func (c Config) maxWindows() int {
	n := c.MaxWindows
	if n <= 0 {
		n = DefaultMaxWindows
	}
	if n < 2 {
		n = 2
	}
	if n%2 == 1 {
		n++
	}
	return n
}

// Collector accumulates one run's telemetry. It is single-threaded, like
// the simulator that drives it. The driving contract:
//
//  1. NewCollector with the network's channel/switch/host counts.
//  2. Start(cycle) when the measurement window opens.
//  3. Once per cycle, if cycle >= NextSample(), feed one full sample:
//     SampleLink for every channel (cumulative busy/stopped counters),
//     SampleSwitchOcc and SampleHostPool for every switch/host, then
//     CloseWindow(cycle).
//  4. Eject/Reinject/BackpressureStalls at event time.
//  5. Finalize(cycle, cycleNs, ends) to produce the immutable Metrics.
type Collector struct {
	windowCycles int64
	maxWindows   int

	startCycle int64
	nextSample int64

	channels, switches, hosts int

	// Per-link cumulative busy-counter snapshots at the last window
	// boundary, for window deltas.
	busyPrev []int64

	// busySeries is row-major [window][channel]: flits carried per window.
	busySeries []uint32
	windows    int

	// Whole-run per-link peaks over windows, in flits (tracked at the
	// original window resolution before any rebinning, so rebinning can
	// only lower — never miss — a peak; peaks are therefore reported
	// against the width the window had when the peak was observed).
	peakBusyFrac []float64

	// Per-switch occupancy samples: running sum and peak.
	occSum  []int64
	occPeak []int32

	// Per-host sampled ITB pool occupancy and event counters.
	poolSum      []int64
	poolPeak     []int32
	ejects       []int64
	reinjects    []int64
	backpressure []int64

	// Network-wide per-window traffic series (messages delivered, packets
	// dropped, retransmissions), cumulative-diffed like the link series.
	// They make throughput dips and recovery after a fault visible.
	delivPrev, dropPrev, retransPrev int64
	delivSeries                      []uint32
	dropSeries                       []uint32
	retransSeries                    []uint32

	// Per-virtual-channel network-wide buffer occupancy (EnableVCs), fed by
	// SampleVCOcc once per lane per boundary. Unlike the link series these
	// are point samples, not deltas, so rebinning accumulates sample sums
	// and vcCount tracks how many samples each series window holds — counts
	// diverge across windows after a rebin (merged windows hold more samples
	// than ones sampled at the widened width), so the count is per window,
	// not a single factor.
	numVCs      int
	vcOccSum    []int64
	vcOccPeak   []int32
	vcOccSeries []uint32 // row-major [window][vc], sums of boundary samples
	vcCount     []uint32 // boundary samples merged into each series window

	samples int64 // boundary samples taken (== windows before rebinning)
}

// NewCollector allocates a collector for a network of the given size.
func NewCollector(cfg Config, channels, switches, hosts int) *Collector {
	return &Collector{
		windowCycles: cfg.windowCycles(),
		maxWindows:   cfg.maxWindows(),
		channels:     channels,
		switches:     switches,
		hosts:        hosts,
		busyPrev:     make([]int64, channels),
		peakBusyFrac: make([]float64, channels),
		occSum:       make([]int64, switches),
		occPeak:      make([]int32, switches),
		poolSum:      make([]int64, hosts),
		poolPeak:     make([]int32, hosts),
		ejects:       make([]int64, hosts),
		reinjects:    make([]int64, hosts),
		backpressure: make([]int64, hosts),
	}
}

// EnableVCs switches on per-virtual-channel occupancy collection for a
// simulator running numVCs lanes. Call once, before Start; the driver then
// feeds SampleVCOcc for every lane at each window boundary.
func (c *Collector) EnableVCs(numVCs int) {
	c.numVCs = numVCs
	c.vcOccSum = make([]int64, numVCs)
	c.vcOccPeak = make([]int32, numVCs)
}

// SampleVCOcc feeds one lane's network-wide buffered flit count (summed over
// every switch input port) at a window boundary. Call for lanes 0..numVCs-1
// in order, once per window.
func (c *Collector) SampleVCOcc(vc, occFlits int) {
	c.vcOccSum[vc] += int64(occFlits)
	if int32(occFlits) > c.vcOccPeak[vc] {
		c.vcOccPeak[vc] = int32(occFlits)
	}
	c.vcOccSeries = append(c.vcOccSeries, uint32(occFlits))
}

// Start opens the measurement period at the given cycle.
func (c *Collector) Start(cycle int64) {
	c.startCycle = cycle
	c.nextSample = cycle + c.windowCycles
}

// NextSample returns the cycle at which the next window sample is due.
func (c *Collector) NextSample() int64 { return c.nextSample }

// LastSample returns the cycle of the previous window boundary (the
// measurement start before any window has closed). Drivers use it at
// measurement end to decide whether a trailing partial window remains to be
// flushed: cycles past LastSample have not been sampled yet. The value is
// exact across rebinning, because CloseWindow reschedules nextSample after
// any width change.
func (c *Collector) LastSample() int64 { return c.nextSample - c.windowCycles }

// SampleLink feeds one channel's cumulative busy counter at a window
// boundary. The collector differences it against the previous boundary
// itself.
func (c *Collector) SampleLink(ch int, busyTotal int64) {
	delta := busyTotal - c.busyPrev[ch]
	c.busyPrev[ch] = busyTotal
	c.busySeries = append(c.busySeries, uint32(delta))
	if f := float64(delta) / float64(c.windowCycles); f > c.peakBusyFrac[ch] {
		c.peakBusyFrac[ch] = f
	}
}

// SampleSwitchOcc feeds one switch's summed input-buffer occupancy (flits
// across all its input ports) at a window boundary.
func (c *Collector) SampleSwitchOcc(sw int, occFlits int) {
	c.occSum[sw] += int64(occFlits)
	if int32(occFlits) > c.occPeak[sw] {
		c.occPeak[sw] = int32(occFlits)
	}
}

// SampleHostPool feeds one host's in-transit-buffer pool occupancy in bytes
// at a window boundary.
func (c *Collector) SampleHostPool(host, poolBytes int) {
	c.poolSum[host] += int64(poolBytes)
	if int32(poolBytes) > c.poolPeak[host] {
		c.poolPeak[host] = int32(poolBytes)
	}
}

// PrimeTraffic sets the traffic baseline at measurement start, so the first
// window's deltas exclude whatever was delivered or dropped during warmup.
// Call it alongside Start.
func (c *Collector) PrimeTraffic(deliveredTotal, droppedTotal, retransmitsTotal int64) {
	c.delivPrev, c.dropPrev, c.retransPrev = deliveredTotal, droppedTotal, retransmitsTotal
}

// SampleTraffic feeds the network-wide cumulative delivery, drop, and
// retransmission counters at a window boundary; the collector differences
// them against the previous boundary itself. Call once per window, before
// CloseWindow.
func (c *Collector) SampleTraffic(deliveredTotal, droppedTotal, retransmitsTotal int64) {
	c.delivSeries = append(c.delivSeries, uint32(deliveredTotal-c.delivPrev))
	c.dropSeries = append(c.dropSeries, uint32(droppedTotal-c.dropPrev))
	c.retransSeries = append(c.retransSeries, uint32(retransmitsTotal-c.retransPrev))
	c.delivPrev, c.dropPrev, c.retransPrev = deliveredTotal, droppedTotal, retransmitsTotal
}

// CloseWindow completes one window after every channel/switch/host has been
// sampled, scheduling the next boundary and rebinning the series if it hit
// the retention bound.
func (c *Collector) CloseWindow(cycle int64) {
	c.windows++
	c.samples++
	if c.numVCs > 0 && len(c.vcOccSeries) == c.windows*c.numVCs {
		c.vcCount = append(c.vcCount, 1)
	}
	if c.windows >= c.maxWindows {
		c.rebin()
	}
	// Schedule after any rebin so the next window spans the width its
	// utilization will be divided by.
	c.nextSample = cycle + c.windowCycles
}

// rebin halves the series resolution: adjacent windows merge pairwise and
// the window width doubles, keeping memory bounded on long runs. An odd
// window count leaves a trailing window with no partner; it is carried
// whole into the last slot of every series (its busy-cycle mass and its
// sample count survive exactly) rather than halved or dropped, so totals
// reconcile across rebinning no matter the series length. The carried
// window then spans half the new width — the same convention as the
// trailing partial window Finalize flushes at measurement end.
func (c *Collector) rebin() {
	half := c.windows / 2
	odd := c.windows%2 == 1
	newW := half
	if odd {
		newW++
	}
	for w := 0; w < half; w++ {
		a := c.busySeries[(2*w)*c.channels : (2*w+1)*c.channels]
		b := c.busySeries[(2*w+1)*c.channels : (2*w+2)*c.channels]
		dst := c.busySeries[w*c.channels : (w+1)*c.channels]
		for i := range dst {
			dst[i] = a[i] + b[i]
		}
	}
	if odd {
		copy(c.busySeries[half*c.channels:(half+1)*c.channels],
			c.busySeries[(2*half)*c.channels:(2*half+1)*c.channels])
	}
	c.busySeries = c.busySeries[:newW*c.channels]
	for _, series := range []*[]uint32{&c.delivSeries, &c.dropSeries, &c.retransSeries} {
		s := *series
		if len(s) < c.windows {
			continue // driver does not feed SampleTraffic
		}
		for w := 0; w < half; w++ {
			s[w] = s[2*w] + s[2*w+1]
		}
		if odd {
			s[half] = s[2*half]
		}
		*series = s[:newW]
	}
	if c.numVCs > 0 && len(c.vcOccSeries) >= c.windows*c.numVCs && len(c.vcCount) >= c.windows {
		for w := 0; w < half; w++ {
			a := c.vcOccSeries[(2*w)*c.numVCs : (2*w+1)*c.numVCs]
			b := c.vcOccSeries[(2*w+1)*c.numVCs : (2*w+2)*c.numVCs]
			dst := c.vcOccSeries[w*c.numVCs : (w+1)*c.numVCs]
			for i := range dst {
				dst[i] = a[i] + b[i]
			}
			c.vcCount[w] = c.vcCount[2*w] + c.vcCount[2*w+1]
		}
		if odd {
			copy(c.vcOccSeries[half*c.numVCs:(half+1)*c.numVCs],
				c.vcOccSeries[(2*half)*c.numVCs:(2*half+1)*c.numVCs])
			c.vcCount[half] = c.vcCount[2*half]
		}
		c.vcOccSeries = c.vcOccSeries[:newW*c.numVCs]
		c.vcCount = c.vcCount[:newW]
	}
	c.windows = newW
	c.windowCycles *= 2
}

// Eject counts one in-transit ejection at a host (the packet is being
// received into the host's ITB pool for later re-injection).
func (c *Collector) Eject(host int) { c.ejects[host]++ }

// Reinject counts one in-transit re-injection start at a host.
func (c *Collector) Reinject(host int) { c.reinjects[host]++ }

// BackpressureStalls counts n cycles in which a host's generation process
// was due to inject but stalled because its source queue was full — the
// network pushing back beyond saturation.
func (c *Collector) BackpressureStalls(host int, n int64) { c.backpressure[host] += n }

// Finalize freezes the collector into an immutable Metrics. measuredCycles
// is the length of the measurement period; ends maps a channel to its
// (from, to) switch pair; totals reports each channel's final cumulative
// busy and flow-control-stopped cycle counts (so whole-run fractions cover
// the tail beyond the last complete window); cycleNs converts cycles to
// wall time.
func (c *Collector) Finalize(measuredCycles int64, cycleNs float64, ends func(ch int) (from, to int), totals func(ch int) (busy, stopped int64)) *Metrics {
	m := &Metrics{
		SchemaVersion:  SchemaVersion,
		CycleNs:        cycleNs,
		WindowCycles:   c.windowCycles,
		Windows:        c.windows,
		MeasuredCycles: measuredCycles,
		Replicas:       1,
	}
	m.Links = make([]LinkMetrics, c.channels)
	for ch := 0; ch < c.channels; ch++ {
		lm := &m.Links[ch]
		lm.Channel = ch
		lm.From, lm.To = ends(ch)
		busy, stopped := totals(ch)
		if measuredCycles > 0 {
			lm.BusyFrac = float64(busy) / float64(measuredCycles)
			lm.StoppedFrac = float64(stopped) / float64(measuredCycles)
		}
		lm.PeakWindowFrac = c.peakBusyFrac[ch]
		if c.windows > 0 {
			lm.Window = make([]float64, c.windows)
			for w := 0; w < c.windows; w++ {
				lm.Window[w] = float64(c.busySeries[w*c.channels+ch]) / float64(c.windowCycles)
			}
		}
	}
	m.Switches = make([]SwitchMetrics, c.switches)
	for sw := range m.Switches {
		sm := &m.Switches[sw]
		sm.Switch = sw
		if c.samples > 0 {
			sm.MeanBufFlits = float64(c.occSum[sw]) / float64(c.samples)
		}
		sm.PeakBufFlits = int(c.occPeak[sw])
	}
	m.Hosts = make([]HostMetrics, c.hosts)
	for h := range m.Hosts {
		hm := &m.Hosts[h]
		hm.Host = h
		hm.Ejects = c.ejects[h]
		hm.Reinjects = c.reinjects[h]
		if c.samples > 0 {
			hm.MeanPoolBytes = float64(c.poolSum[h]) / float64(c.samples)
		}
		hm.PeakPoolBytes = int(c.poolPeak[h])
		hm.BackpressureCycles = c.backpressure[h]
	}
	if c.numVCs > 0 {
		m.VCs = make([]VCMetrics, c.numVCs)
		for v := range m.VCs {
			vm := &m.VCs[v]
			vm.VC = v
			if c.samples > 0 {
				vm.MeanBufFlits = float64(c.vcOccSum[v]) / float64(c.samples)
			}
			vm.PeakBufFlits = int(c.vcOccPeak[v])
			if c.windows > 0 && len(c.vcOccSeries) == c.windows*c.numVCs && len(c.vcCount) == c.windows {
				vm.Window = make([]float64, c.windows)
				for w := range vm.Window {
					vm.Window[w] = float64(c.vcOccSeries[w*c.numVCs+v]) / float64(c.vcCount[w])
				}
			}
		}
	}
	if len(c.delivSeries) == c.windows && c.windows > 0 {
		t := &TrafficMetrics{
			Delivered:   make([]int64, c.windows),
			Dropped:     make([]int64, c.windows),
			Retransmits: make([]int64, c.windows),
		}
		for w := 0; w < c.windows; w++ {
			t.Delivered[w] = int64(c.delivSeries[w])
			t.Dropped[w] = int64(c.dropSeries[w])
			t.Retransmits[w] = int64(c.retransSeries[w])
		}
		m.Traffic = t
	}
	return m
}

// SchemaVersion identifies the telemetry schema emitted by this package;
// bump it on any incompatible field change (see docs/METRICS.md).
const SchemaVersion = 1

// Metrics is one run's (or one aggregated cell's) frozen telemetry. All
// fractions are of measurement-window cycles; all byte/flit quantities are
// in the units their names state; all times are in ns via CycleNs. See
// docs/METRICS.md for the full schema.
type Metrics struct {
	// SchemaVersion is the telemetry schema version (currently 1).
	SchemaVersion int `json:"schema_version"`
	// CycleNs is the wall-clock duration of one simulator cycle in ns.
	CycleNs float64 `json:"cycle_ns"`
	// WindowCycles is the (post-rebinning) sampling window width in cycles.
	WindowCycles int64 `json:"window_cycles"`
	// Windows is the number of complete windows in the per-link series.
	Windows int `json:"windows"`
	// MeasuredCycles is the measurement period length in cycles.
	MeasuredCycles int64 `json:"measured_cycles"`
	// Replicas is how many runs were merged into this Metrics (1 for a
	// single run). Counts are totals across replicas; fractions and means
	// are averages; peaks are maxima.
	Replicas int `json:"replicas"`

	Links    []LinkMetrics   `json:"links"`
	Switches []SwitchMetrics `json:"switches"`
	Hosts    []HostMetrics   `json:"hosts"`

	// VCs is the per-virtual-channel occupancy telemetry of a run under VC
	// flow control (nil otherwise — stop & go runs have no lanes).
	VCs []VCMetrics `json:"vcs,omitempty"`

	// Traffic is the network-wide per-window delivery/drop/retransmission
	// series (nil when the driver does not feed SampleTraffic, or on
	// aggregated metrics whose replicas had different window shapes). It is
	// the series that makes a fault's goodput dip and recovery visible.
	Traffic *TrafficMetrics `json:"traffic,omitempty"`

	// Latency is the histogram of total message latency (generation to
	// last-flit delivery); NetLatency measures from first-flit injection.
	Latency    *Histogram `json:"-"`
	NetLatency *Histogram `json:"-"`
}

// ChannelCriticality extracts the per-channel criticality vector the route
// optimizer (internal/optimize) consumes: BusyFrac indexed by topology
// channel ID. Channels absent from the telemetry (never sampled) read 0.
// It is the bridge from a profiling run's telemetry file back into an
// optimization pass, the measured counterpart of the optimizer's static
// load estimate.
func (m *Metrics) ChannelCriticality() []float64 {
	maxCh := -1
	for i := range m.Links {
		if m.Links[i].Channel > maxCh {
			maxCh = m.Links[i].Channel
		}
	}
	out := make([]float64, maxCh+1)
	for i := range m.Links {
		out[m.Links[i].Channel] = m.Links[i].BusyFrac
	}
	return out
}

// LinkMetrics is one directed switch-to-switch channel's telemetry.
type LinkMetrics struct {
	// Channel is the topology channel ID; From and To its endpoint switches.
	Channel int `json:"channel"`
	From    int `json:"from"`
	To      int `json:"to"`
	// BusyFrac is the fraction of measurement cycles the channel carried a
	// flit; StoppedFrac the fraction it sat idle under stop & go flow
	// control while a packet wanted to advance.
	BusyFrac    float64 `json:"busy_frac"`
	StoppedFrac float64 `json:"stopped_frac"`
	// PeakWindowFrac is the highest single-window utilization observed (at
	// the window resolution in effect when the peak occurred).
	PeakWindowFrac float64 `json:"peak_window_frac"`
	// Window is the per-window utilization series (nil on aggregated
	// metrics whose replicas had different window shapes).
	Window []float64 `json:"window,omitempty"`
}

// TrafficMetrics is the network-wide per-window traffic series: messages
// delivered, packets dropped by fault events, and source retransmissions in
// each window. All three slices have Metrics.Windows elements; counts are
// totals across replicas on aggregated metrics.
type TrafficMetrics struct {
	Delivered   []int64 `json:"delivered"`
	Dropped     []int64 `json:"dropped"`
	Retransmits []int64 `json:"retransmits"`
}

// VCMetrics is one virtual channel's occupancy telemetry: how many flits
// the lane held, summed over every switch input port in the network, sampled
// at window boundaries. Comparing lanes shows how the layered routing loads
// them — lane 0 (the escape layer) filling while higher lanes idle means the
// layering is falling back too often.
type VCMetrics struct {
	VC int `json:"vc"`
	// MeanBufFlits is the mean network-wide buffered flit count across
	// boundary samples; PeakBufFlits the largest sampled value.
	MeanBufFlits float64 `json:"mean_buf_flits"`
	PeakBufFlits int     `json:"peak_buf_flits"`
	// Window is the per-window mean occupancy series (nil on aggregated
	// metrics whose replicas had different window shapes).
	Window []float64 `json:"window,omitempty"`
}

// SwitchMetrics is one switch's input-buffer occupancy telemetry, sampled
// at window boundaries over all the switch's input ports.
type SwitchMetrics struct {
	Switch int `json:"switch"`
	// MeanBufFlits is the mean summed occupancy across boundary samples;
	// PeakBufFlits the largest sampled value.
	MeanBufFlits float64 `json:"mean_buf_flits"`
	PeakBufFlits int     `json:"peak_buf_flits"`
}

// HostMetrics is one host NIC's ITB and injection telemetry.
type HostMetrics struct {
	Host int `json:"host"`
	// Ejects and Reinjects count in-transit packets ejected into and
	// re-injected from this host's ITB pool during measurement.
	Ejects    int64 `json:"ejects"`
	Reinjects int64 `json:"reinjects"`
	// MeanPoolBytes and PeakPoolBytes describe the sampled ITB pool
	// occupancy.
	MeanPoolBytes float64 `json:"mean_pool_bytes"`
	PeakPoolBytes int     `json:"peak_pool_bytes"`
	// BackpressureCycles counts cycles the host's generation process was
	// due but stalled on a full source queue.
	BackpressureCycles int64 `json:"backpressure_cycles"`
}

// Aggregate merges per-replica metrics of the same experimental cell into
// one Metrics: histograms and event counts are summed (totals across
// replicas), fractions and means are averaged, peaks are maxima, and the
// per-link window series is averaged element-wise when every replica shares
// the same window shape (dropped otherwise). Inputs are not modified; nil
// entries are skipped; an empty input yields nil.
func Aggregate(ms []*Metrics) *Metrics {
	var live []*Metrics
	for _, m := range ms {
		if m != nil {
			live = append(live, m)
		}
	}
	if len(live) == 0 {
		return nil
	}
	if len(live) == 1 {
		return live[0]
	}
	first := live[0]
	out := &Metrics{
		SchemaVersion:  SchemaVersion,
		CycleNs:        first.CycleNs,
		WindowCycles:   first.WindowCycles,
		Windows:        first.Windows,
		MeasuredCycles: first.MeasuredCycles,
		Links:          make([]LinkMetrics, len(first.Links)),
		Switches:       make([]SwitchMetrics, len(first.Switches)),
		Hosts:          make([]HostMetrics, len(first.Hosts)),
	}
	sameShape := true
	for _, m := range live {
		out.Replicas += m.Replicas
		if m.WindowCycles != first.WindowCycles || m.Windows != first.Windows {
			sameShape = false
		}
		if m.MeasuredCycles > out.MeasuredCycles {
			out.MeasuredCycles = m.MeasuredCycles
		}
	}
	n := float64(len(live))
	for i := range out.Links {
		lm := &out.Links[i]
		lm.Channel = first.Links[i].Channel
		lm.From = first.Links[i].From
		lm.To = first.Links[i].To
		if sameShape && first.Windows > 0 {
			lm.Window = make([]float64, first.Windows)
		}
		for _, m := range live {
			lm.BusyFrac += m.Links[i].BusyFrac / n
			lm.StoppedFrac += m.Links[i].StoppedFrac / n
			if m.Links[i].PeakWindowFrac > lm.PeakWindowFrac {
				lm.PeakWindowFrac = m.Links[i].PeakWindowFrac
			}
			if lm.Window != nil {
				for w := range lm.Window {
					lm.Window[w] += m.Links[i].Window[w] / n
				}
			}
		}
	}
	for i := range out.Switches {
		sm := &out.Switches[i]
		sm.Switch = first.Switches[i].Switch
		for _, m := range live {
			sm.MeanBufFlits += m.Switches[i].MeanBufFlits / n
			if m.Switches[i].PeakBufFlits > sm.PeakBufFlits {
				sm.PeakBufFlits = m.Switches[i].PeakBufFlits
			}
		}
	}
	for i := range out.Hosts {
		hm := &out.Hosts[i]
		hm.Host = first.Hosts[i].Host
		for _, m := range live {
			hm.Ejects += m.Hosts[i].Ejects
			hm.Reinjects += m.Hosts[i].Reinjects
			hm.MeanPoolBytes += m.Hosts[i].MeanPoolBytes / n
			if m.Hosts[i].PeakPoolBytes > hm.PeakPoolBytes {
				hm.PeakPoolBytes = m.Hosts[i].PeakPoolBytes
			}
			hm.BackpressureCycles += m.Hosts[i].BackpressureCycles
		}
	}
	vcShape := len(first.VCs) > 0
	for _, m := range live {
		if len(m.VCs) != len(first.VCs) {
			vcShape = false
		}
	}
	if vcShape {
		out.VCs = make([]VCMetrics, len(first.VCs))
		for i := range out.VCs {
			vm := &out.VCs[i]
			vm.VC = first.VCs[i].VC
			if sameShape && first.Windows > 0 {
				vm.Window = make([]float64, first.Windows)
			}
			for _, m := range live {
				vm.MeanBufFlits += m.VCs[i].MeanBufFlits / n
				if m.VCs[i].PeakBufFlits > vm.PeakBufFlits {
					vm.PeakBufFlits = m.VCs[i].PeakBufFlits
				}
				if vm.Window != nil {
					for w := range vm.Window {
						vm.Window[w] += m.VCs[i].Window[w] / n
					}
				}
			}
		}
	}
	trafficShape := sameShape
	for _, m := range live {
		if m.Traffic == nil {
			trafficShape = false
		}
	}
	if trafficShape && first.Windows > 0 {
		t := &TrafficMetrics{
			Delivered:   make([]int64, first.Windows),
			Dropped:     make([]int64, first.Windows),
			Retransmits: make([]int64, first.Windows),
		}
		for _, m := range live {
			for w := 0; w < first.Windows; w++ {
				t.Delivered[w] += m.Traffic.Delivered[w]
				t.Dropped[w] += m.Traffic.Dropped[w]
				t.Retransmits[w] += m.Traffic.Retransmits[w]
			}
		}
		out.Traffic = t
	}
	for _, m := range live {
		if m.Latency != nil {
			if out.Latency == nil {
				out.Latency = NewHistogram()
			}
			out.Latency.Merge(m.Latency)
		}
		if m.NetLatency != nil {
			if out.NetLatency == nil {
				out.NetLatency = NewHistogram()
			}
			out.NetLatency.Merge(m.NetLatency)
		}
	}
	return out
}
