package netsim

import (
	"sync"
	"testing"

	"itbsim/internal/routes"
	"itbsim/internal/topology"
)

// benchTorusPoint measures simulator throughput on an 8x8 torus of 16-port
// switches with hostsPerSwitch hosts each, under scheme at the given
// injection rate with uniform traffic: one full Run per op. dense selects
// the legacy per-cycle full scan instead of the active-set scheduler, so
// the Dense variants are the reference loop's numbers for the same point.
func benchTorusPoint(b *testing.B, hostsPerSwitch int, scheme routes.Scheme, load float64, dense bool) {
	benchTorus(b, hostsPerSwitch, scheme, load, dense, uniformDest)
}

// benchTorus is benchTorusPoint under the traffic pattern dest builds for
// the fabric's host count, reporting the work ratios (benchRuns).
func benchTorus(b *testing.B, hostsPerSwitch int, scheme routes.Scheme, load float64, dense bool, dest func(numHosts int) DestFn) {
	b.Helper()
	net, err := topology.NewTorus(8, 8, hostsPerSwitch, 16)
	if err != nil {
		b.Fatal(err)
	}
	tab, err := routes.Build(net, routes.DefaultConfig(scheme))
	if err != nil {
		b.Fatal(err)
	}
	benchRuns(b, func(seed int64) Config {
		return Config{
			Net:             net,
			Table:           tab.Clone(),
			Dest:            dest(net.NumHosts()),
			Load:            load,
			MessageBytes:    512,
			Seed:            seed,
			WarmupMessages:  100,
			MeasureMessages: 500,
			MaxCycles:       10_000_000,
			denseStep:       dense,
		}
	})
}

// benchRuns runs the simulation mk builds for seed i+1 once per op and
// reports three work ratios, which the active-set loop keeps well below 1:
// visits/flit, switch-output transfer visits per flit a switch output
// moved, and nicvisits/flit, NIC transfer visits per flit a NIC moved, both
// lowered by committed runs; and rx/flit, arrival deliveries to NICs per
// flit a NIC received, which reading receptions from the arrival stamps
// lowers.
func benchRuns(b *testing.B, mk func(seed int64) Config) {
	b.Helper()
	var visits, flits, nicVisits, nicFlits, rxVisits, rxFlits int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(mk(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
		visits += s.outVisits
		flits += s.outFlits
		nicVisits += s.nicVisits
		nicFlits += s.nicFlits
		rxVisits += s.rxVisits
		rxFlits += s.rxFlits
	}
	if flits > 0 {
		b.ReportMetric(float64(visits)/float64(flits), "visits/flit")
	}
	if nicFlits > 0 {
		b.ReportMetric(float64(nicVisits)/float64(nicFlits), "nicvisits/flit")
	}
	if rxFlits > 0 {
		b.ReportMetric(float64(rxVisits)/float64(rxFlits), "rx/flit")
	}
}

// BenchmarkMediumTorusPoint measures simulator throughput on the 8x8 torus
// with 2 hosts per switch (128 hosts, a quarter of the paper's) near the
// UP/DOWN saturation load. Used for profiling the cycle loop.
func BenchmarkMediumTorusPoint(b *testing.B) { benchTorusPoint(b, 2, routes.UpDown, 0.014, false) }

// BenchmarkLowLoadTorusPoint is the same fabric far below saturation
// (~0.14x the UP/DOWN knee): most cycles are nearly idle, the regime the
// active-set scheduler exists for. Low-load points dominate the wall time
// of every latency/throughput sweep and of fault-injection drain windows.
func BenchmarkLowLoadTorusPoint(b *testing.B) { benchTorusPoint(b, 2, routes.UpDown, 0.002, false) }

// BenchmarkLowLoadTorusPointDense is the same point on the legacy dense
// scan: the baseline the active-set loop's low-load speedup is measured
// against.
func BenchmarkLowLoadTorusPointDense(b *testing.B) {
	benchTorusPoint(b, 2, routes.UpDown, 0.002, true)
}

// BenchmarkSaturatedTorusPoint drives the fabric past the knee: every
// component is busy every cycle, so active-set bookkeeping is pure
// overhead here and must stay within noise of the dense scan.
func BenchmarkSaturatedTorusPoint(b *testing.B) { benchTorusPoint(b, 2, routes.UpDown, 0.033, false) }

// BenchmarkSaturatedTorusPointDense is the saturation baseline: the
// active-set loop must stay within 5% of it.
func BenchmarkSaturatedTorusPointDense(b *testing.B) {
	benchTorusPoint(b, 2, routes.UpDown, 0.033, true)
}

// The paper-scale points run the paper's fabric itself: the 8x8 torus with
// 8 hosts on every 16-port switch (512 hosts), where a busy switch has 12
// output ports of which typically one or two move a flit in a cycle.

// BenchmarkPaperTorusUpDownLow is UP/DOWN far below its knee, the regime
// in which per-port scans dominated the switch phases.
func BenchmarkPaperTorusUpDownLow(b *testing.B) { benchTorusPoint(b, 8, routes.UpDown, 0.002, false) }

// BenchmarkPaperTorusITBRRLow is ITB-RR at a low load.
func BenchmarkPaperTorusITBRRLow(b *testing.B) { benchTorusPoint(b, 8, routes.ITBRR, 0.006, false) }

// BenchmarkPaperTorusITBRRKnee is ITB-RR at its saturation knee.
func BenchmarkPaperTorusITBRRKnee(b *testing.B) { benchTorusPoint(b, 8, routes.ITBRR, 0.024, false) }

// hotspotDest sends 10% of the messages of every other host to host 0 and
// the rest uniformly, the distribution of traffic.Hotspot(numHosts, 0,
// 0.10), which this package's tests cannot import.
func hotspotDest(numHosts int) DestFn { return hotspot(numHosts, 0, 0.10) }

// hotspot sends the fraction frac of the messages of every host but hot to
// hot and the rest uniformly.
func hotspot(numHosts, hot int, frac float64) DestFn {
	return func(src int, rng *RNG) int {
		if src != hot && rng.Float64() < frac {
			return hot
		}
		d := rng.Intn(numHosts - 1)
		if d >= src {
			d++
		}
		return d
	}
}

// BenchmarkPaperTorusHotspotSat is ITB-RR under 10% hotspot traffic at the
// top load of the benchmark's hotspot workload, far past the knee: source
// queues stay full and most injecting NICs and many switch outputs wait on
// stopped links, the regime in which stalled components park until their
// go signal.
func BenchmarkPaperTorusHotspotSat(b *testing.B) {
	benchTorus(b, 8, routes.ITBRR, 0.031, false, hotspotDest)
}

// The VC benchmarks compare the two deadlock-avoidance mechanisms on the
// same fabric and workload: ITB-RR (in-transit buffers, the paper's
// mechanism) against virtual-channel flow control with a two-lane LASH
// assignment. The fabric is the small dragonfly (12 switches, 24 hosts)
// of the VC correctness suite; topology and both routing tables are
// built once and shared.
var vcBench struct {
	once sync.Once
	net  *topology.Network
	itb  *routes.Table
	vc   *routes.Table
	err  error
}

func benchVCDragonflyPoint(b *testing.B, scheme routes.Scheme) {
	b.Helper()
	vcBench.once.Do(func() {
		vcBench.net, vcBench.err = topology.NewDragonfly(4, 3, 1, 2, 8)
		if vcBench.err != nil {
			return
		}
		vcBench.itb, vcBench.err = routes.Build(vcBench.net, routes.DefaultConfig(routes.ITBRR))
		if vcBench.err != nil {
			return
		}
		cfg := routes.DefaultConfig(routes.VC)
		cfg.VCs = 2
		vcBench.vc, vcBench.err = routes.Build(vcBench.net, cfg)
	})
	if vcBench.err != nil {
		b.Fatal(vcBench.err)
	}
	net := vcBench.net
	tab := vcBench.itb
	if scheme == routes.VC {
		tab = vcBench.vc
	}
	benchRuns(b, func(seed int64) Config {
		return Config{
			Net:             net,
			Table:           tab.Clone(),
			Dest:            uniformDest(net.NumHosts()),
			Load:            0.05,
			MessageBytes:    512,
			Seed:            seed,
			WarmupMessages:  100,
			MeasureMessages: 500,
			MaxCycles:       10_000_000,
		}
	})
}

// BenchmarkITBDragonflyPoint is the ITB-RR baseline for the VC comparison:
// the same dragonfly point with deadlock avoidance by in-transit buffers.
func BenchmarkITBDragonflyPoint(b *testing.B) { benchVCDragonflyPoint(b, routes.ITBRR) }

// BenchmarkVCDragonflyPoint runs the point over virtual-channel flow
// control (two lanes, LASH layer assignment). A streaming output on a
// credit link commits its departures one flight ahead, as a stop & go
// output does, a sender out of credits sleeps until a credit return
// reaches its link, and a NIC reads its lanes a run at a time; see
// docs/VC.md for the point's time against the ITB point's.
func BenchmarkVCDragonflyPoint(b *testing.B) { benchVCDragonflyPoint(b, routes.VC) }

// BenchmarkVCTorus11Point is the VC point of cmd/simbench's scale-torus11
// workload: the 11x11 torus with one host on every 16-port switch, VC flow
// control with the default lane assignment, uniform traffic at load 0.008,
// 300 warm-up and 2,000 measured messages. Under a second per op on a
// 2-vCPU host.
func BenchmarkVCTorus11Point(b *testing.B) {
	b.Helper()
	net, err := topology.NewTorus(11, 11, 1, 16)
	if err != nil {
		b.Fatal(err)
	}
	tab, err := routes.Build(net, routes.DefaultConfig(routes.VC))
	if err != nil {
		b.Fatal(err)
	}
	benchRuns(b, func(seed int64) Config {
		return Config{
			Net:             net,
			Table:           tab.Clone(),
			Dest:            uniformDest(net.NumHosts()),
			Load:            0.008,
			MessageBytes:    512,
			Seed:            seed,
			WarmupMessages:  300,
			MeasureMessages: 2000,
			MaxCycles:       12_000_000,
		}
	})
}
