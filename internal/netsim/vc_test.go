package netsim

import (
	"errors"
	"reflect"
	"testing"

	"itbsim/internal/faults"
	"itbsim/internal/metrics"
	"itbsim/internal/routes"
	"itbsim/internal/topology"
)

// vcNets builds the VC test fabrics: a low-diameter dragonfly and the
// paper's torus as the regular-network control, both small enough that the
// equivalence matrix stays fast.
func vcNets(t *testing.T) []*topology.Network {
	t.Helper()
	df, err := topology.NewDragonfly(4, 3, 1, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	torus, err := topology.NewTorus(4, 4, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	return []*topology.Network{df, torus}
}

func makeVCTable(t testing.TB, net *topology.Network, vcs int) *routes.Table {
	t.Helper()
	cfg := routes.DefaultConfig(routes.VC)
	cfg.VCs = vcs
	tab, err := routes.Build(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func vcConfig(t testing.TB, net *topology.Network, vcs int) Config {
	t.Helper()
	cfg := baseConfig(net, makeVCTable(t, net, vcs))
	cfg.Load = 0.01
	cfg.WarmupMessages = 50
	cfg.MeasureMessages = 200
	cfg.CollectLinkUtil = true
	cfg.Metrics = &metrics.Config{WindowCycles: 4096}
	return cfg
}

// TestVCEndToEnd runs virtual-channel flow control on both fabrics at a
// moderate load: every measured message must be delivered without the run
// truncating or the deadlock watchdog firing, and the simulator must have
// picked up the lane count from the table.
func TestVCEndToEnd(t *testing.T) {
	for _, net := range vcNets(t) {
		for _, vcs := range []int{1, 2, 3} {
			cfg := vcConfig(t, net, vcs)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !s.vcMode || s.numVCs != vcs {
				t.Fatalf("%s VCs=%d: simulator in vcMode=%v numVCs=%d", net.Name, vcs, s.vcMode, s.numVCs)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatalf("%s VCs=%d: %v", net.Name, vcs, err)
			}
			if res.Truncated {
				t.Fatalf("%s VCs=%d: run truncated with %d outstanding", net.Name, vcs, res.OutstandingAtEnd)
			}
			if res.DeliveredMeasured < int64(cfg.MeasureMessages) {
				t.Errorf("%s VCs=%d: only %d measured deliveries", net.Name, vcs, res.DeliveredMeasured)
			}
			if res.AvgITBsPerMessage != 0 {
				t.Errorf("%s VCs=%d: ITBs used under VC flow control", net.Name, vcs)
			}
			if res.GeneratedMessages != res.DeliveredMessages+res.OutstandingAtEnd {
				t.Errorf("%s VCs=%d: conservation violated: %d != %d + %d",
					net.Name, vcs, res.GeneratedMessages, res.DeliveredMessages, res.OutstandingAtEnd)
			}
			if res.Metrics == nil || len(res.Metrics.VCs) != vcs {
				t.Fatalf("%s VCs=%d: per-VC metrics missing or wrong size", net.Name, vcs)
			}
			var occ float64
			for _, vm := range res.Metrics.VCs {
				occ += vm.MeanBufFlits
			}
			if occ <= 0 {
				t.Errorf("%s VCs=%d: per-VC occupancy series all zero", net.Name, vcs)
			}
		}
	}
}

// TestVCLoopEquivalence is the VC analogue of TestActiveSetMatchesDense:
// the dense scan and the active-set loop must produce byte-identical
// Results — metrics series and histograms included — on a VC run.
func TestVCLoopEquivalence(t *testing.T) {
	for _, net := range vcNets(t) {
		t.Run(net.Name, func(t *testing.T) {
			want, err := Run(vcConfig(t, net, 2))
			if err != nil {
				t.Fatal(err)
			}
			dense := vcConfig(t, net, 2)
			dense.denseStep = true
			if got, err := Run(dense); err != nil {
				t.Fatalf("dense: %v", err)
			} else if !reflect.DeepEqual(want, got) {
				t.Errorf("dense loop diverges from active-set run")
			}
		})
	}
}

// TestVCSaturation drives the dragonfly well past saturation: the run must
// stay live (credit conservation panics would fire here if lanes leaked),
// deliver its quota, and report link idle time attributable to exhausted
// credits.
func TestVCSaturation(t *testing.T) {
	net := vcNets(t)[0]
	cfg := vcConfig(t, net, 2)
	cfg.Load = 0.15
	cfg.MeasureMessages = 300
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredMeasured < int64(cfg.MeasureMessages) {
		t.Fatalf("only %d measured deliveries at saturation", res.DeliveredMeasured)
	}
	if res.Accepted > res.Injected {
		t.Errorf("accepted %.4f above injected %.4f", res.Accepted, res.Injected)
	}
}

// TestVCEnqueueDrains covers the Enqueue/RunUntilDrained path under VC flow
// control, which internal/gm-style layers would use.
func TestVCEnqueueDrains(t *testing.T) {
	net := vcNets(t)[1]
	cfg := baseConfig(net, makeVCTable(t, net, 2))
	cfg.Load = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	H := net.NumHosts()
	for i := 0; i < 2*H; i++ {
		src := i % H
		if _, err := s.Enqueue(src, (src+7)%H, 256); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.RunUntilDrained()
	if err != nil {
		t.Fatal(err)
	}
	if res.OutstandingAtEnd != 0 || res.DeliveredMessages != int64(2*H) {
		t.Fatalf("drain incomplete: %d delivered, %d outstanding", res.DeliveredMessages, res.OutstandingAtEnd)
	}
}

// TestVCConfigGate pins the VC-mode validation in New: the table's lane
// count must be one the simulator supports, a lane must hold a header flit
// and make progress, and the fault machinery is excluded.
func TestVCConfigGate(t *testing.T) {
	net := vcNets(t)[1]
	vcTab := makeVCTable(t, net, 2)

	var ce *topology.ConfigError

	wide := makeVCTable(t, net, 2)
	wide.NumVCs = maxVCs + 1
	if _, err := New(baseConfig(net, wide)); !errors.As(err, &ce) || ce.Field != "Table" {
		t.Errorf("table with %d lanes: got %v", wide.NumVCs, err)
	}

	cfg := baseConfig(net, vcTab)
	cfg.Params = DefaultParams()
	cfg.Params.VCBufFlits = 1
	if _, err := New(cfg); err == nil {
		t.Error("one-flit VC buffers accepted")
	}

	cfg = baseConfig(net, vcTab)
	cfg.Faults = (&faults.Plan{}).FailLinkAt(0, 1000)
	if _, err := New(cfg); !errors.As(err, &ce) {
		t.Errorf("VC mode with faults: got %v", err)
	}

	// The happy path takes the lane count from the table and the buffer
	// depth from the default.
	cfg = baseConfig(net, vcTab)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !s.vcMode || s.numVCs != 2 || s.p.VCBufFlits != DefaultVCBufFlits {
		t.Errorf("defaults not applied: vcMode=%v numVCs=%d VCBufFlits=%d", s.vcMode, s.numVCs, s.p.VCBufFlits)
	}
}

// TestVCDeterminism reruns one VC configuration and requires identical
// results, the base determinism contract.
func TestVCDeterminism(t *testing.T) {
	run := func() *Result {
		res, err := Run(vcConfig(t, vcNets(t)[0], 2))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Error("identical VC configs produced different results")
	}
}
