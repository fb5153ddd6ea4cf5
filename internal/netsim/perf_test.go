package netsim

import (
	"sync"
	"testing"

	"itbsim/internal/routes"
	"itbsim/internal/topology"
)

// benchTorusPoint measures simulator throughput on an 8x8 torus at the
// given injection rate: one full Run per op. dense selects the legacy
// per-cycle full scan instead of the active-set scheduler, so the Dense
// benchmark variants are the "before" numbers of BENCH_4.json.
func benchTorusPoint(b *testing.B, load float64, dense bool) {
	b.Helper()
	net, err := topology.NewTorus(8, 8, 2, 16)
	if err != nil {
		b.Fatal(err)
	}
	tab, err := routes.Build(net, routes.DefaultConfig(routes.UpDown))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := Config{
			Net:             net,
			Table:           tab.Clone(),
			Dest:            uniformDest(net.NumHosts()),
			Load:            load,
			MessageBytes:    512,
			Seed:            int64(i + 1),
			WarmupMessages:  100,
			MeasureMessages: 500,
			MaxCycles:       10_000_000,
			DenseStep:       dense,
		}
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMediumTorusPoint measures simulator throughput on the paper's
// 8x8 fabric near the UP/DOWN saturation load. Used for profiling the
// cycle loop.
func BenchmarkMediumTorusPoint(b *testing.B) { benchTorusPoint(b, 0.014, false) }

// BenchmarkLowLoadTorusPoint is the same fabric far below saturation
// (~0.14x the UP/DOWN knee): most cycles are nearly idle, the regime the
// active-set scheduler exists for. Low-load points dominate the wall time
// of every latency/throughput sweep and of fault-injection drain windows.
func BenchmarkLowLoadTorusPoint(b *testing.B) { benchTorusPoint(b, 0.002, false) }

// BenchmarkLowLoadTorusPointDense is the same point on the legacy dense
// scan: the baseline the ≥2x low-load speedup is measured against.
func BenchmarkLowLoadTorusPointDense(b *testing.B) { benchTorusPoint(b, 0.002, true) }

// BenchmarkSaturatedTorusPoint drives the fabric past the knee: every
// component is busy every cycle, so active-set bookkeeping is pure
// overhead here and must stay within noise of the dense scan.
func BenchmarkSaturatedTorusPoint(b *testing.B) { benchTorusPoint(b, 0.033, false) }

// BenchmarkSaturatedTorusPointDense is the saturation baseline: the
// active-set loop must stay within 5% of it.
func BenchmarkSaturatedTorusPointDense(b *testing.B) { benchTorusPoint(b, 0.033, true) }

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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := Config{
			Net:             net,
			Table:           tab.Clone(),
			Dest:            uniformDest(net.NumHosts()),
			Load:            0.05,
			MessageBytes:    512,
			Seed:            int64(i + 1),
			WarmupMessages:  100,
			MeasureMessages: 500,
			MaxCycles:       10_000_000,
		}
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkITBDragonflyPoint is the ITB-RR baseline of BENCH_7.json: the
// same dragonfly point with deadlock avoidance by in-transit buffers.
func BenchmarkITBDragonflyPoint(b *testing.B) { benchVCDragonflyPoint(b, routes.ITBRR) }

// BenchmarkVCDragonflyPoint runs the point over virtual-channel flow
// control (two lanes, LASH layer assignment). The per-lane buffers and
// credit bookkeeping make each cycle heavier than the ITB path; the
// acceptance bar is that the slowdown stays around 2x or better.
func BenchmarkVCDragonflyPoint(b *testing.B) { benchVCDragonflyPoint(b, routes.VC) }
