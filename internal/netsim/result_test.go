package netsim

import (
	"math"
	"testing"

	"itbsim/internal/routes"
)

func TestLatencyPercentilesOrdered(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	tab := makeTable(t, net, routes.UpDown)
	cfg := baseConfig(net, tab)
	cfg.Load = 0.05 // enough contention to spread the distribution
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.LatencyP50Ns <= res.LatencyP95Ns && res.LatencyP95Ns <= res.LatencyP99Ns) {
		t.Errorf("percentiles out of order: p50=%.0f p95=%.0f p99=%.0f",
			res.LatencyP50Ns, res.LatencyP95Ns, res.LatencyP99Ns)
	}
	if res.LatencyP99Ns > res.MaxLatencyNs {
		t.Errorf("p99 %.0f above max %.0f", res.LatencyP99Ns, res.MaxLatencyNs)
	}
	if res.LatencyP50Ns > res.AvgLatencyNs*2 || res.LatencyP50Ns <= 0 {
		t.Errorf("median %.0f implausible against mean %.0f", res.LatencyP50Ns, res.AvgLatencyNs)
	}
}

// TestDeliverEventsRecoverDeliveries checks that the trace carries what a
// delivery callback would: one EvDeliver per delivered message, at the
// cycle its last flit arrived, from which, with the message's generate and
// reinject events, its latency and ITB visits follow. Over the measured
// messages those add up to the Result's averages.
func TestDeliverEventsRecoverDeliveries(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	cfg := baseConfig(net, makeTable(t, net, routes.ITBRR))
	cfg.WarmupMessages = 20
	cfg.MeasureMessages = 100
	ring := NewRingTracer(1 << 16)
	cfg.Tracer = ring
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ring.Total() > 1<<16 {
		t.Fatalf("%d events overflowed the ring", ring.Total())
	}
	genAt := map[int64]int64{}
	itbs := map[int64]int{}
	var delivered, measured, latCycles, itbSum int64
	measureFrom := int64(-1) // measurement starts the cycle after the warmup's last delivery
	for _, e := range ring.Events() {
		switch e.Kind {
		case EvGenerate:
			genAt[e.Packet] = e.Cycle
		case EvReinject:
			itbs[e.Packet]++
		case EvDeliver:
			delivered++
			if measureFrom >= 0 && genAt[e.Packet] >= measureFrom {
				measured++
				latCycles += e.Cycle - genAt[e.Packet]
				itbSum += int64(itbs[e.Packet])
			}
			if delivered == int64(cfg.WarmupMessages) {
				measureFrom = e.Cycle + 1
			}
		}
	}
	if delivered != res.DeliveredMessages || measured != res.DeliveredMeasured {
		t.Fatalf("trace delivers %d messages, %d measured; result has %d, %d",
			delivered, measured, res.DeliveredMessages, res.DeliveredMeasured)
	}
	lat := float64(latCycles) * DefaultParams().CycleNs / float64(measured)
	if math.Abs(lat-res.AvgLatencyNs) > 1e-9*lat {
		t.Errorf("trace latency %.3f ns, result %.3f ns", lat, res.AvgLatencyNs)
	}
	if got := float64(itbSum) / float64(measured); math.Abs(got-res.AvgITBsPerMessage) > 1e-12 || itbSum == 0 {
		t.Errorf("trace ITB visits %.4f per message, result %.4f", got, res.AvgITBsPerMessage)
	}
}

func TestEnqueueAndRunUntilDrained(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	tab := makeTable(t, net, routes.UpDown)
	cfg := baseConfig(net, tab)
	cfg.Load = 0 // no internal generation
	ring := NewRingTracer(1 << 10)
	cfg.Tracer = ring
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for i := 0; i < 10; i++ {
		id, err := s.Enqueue(i, i+10, 256)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, id)
	}
	res, err := s.RunUntilDrained()
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredMeasured != 10 {
		t.Fatalf("delivered %d of 10", res.DeliveredMeasured)
	}
	seen := map[int64]bool{}
	for _, e := range ring.Events() {
		if e.Kind == EvDeliver {
			seen[e.Packet] = true
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("%d delivery events for %d packets", len(seen), len(want))
	}
	for _, id := range want {
		if !seen[id] {
			t.Errorf("packet %d never delivered", id)
		}
	}
	// Drained network: a second drain is a no-op.
	res2, err := s.RunUntilDrained()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cycles != res.Cycles {
		t.Error("idle drain advanced time")
	}
}

func TestEnqueueValidation(t *testing.T) {
	net := makeNet(t, 2, 2, 1)
	tab := makeTable(t, net, routes.UpDown)
	cfg := baseConfig(net, tab)
	cfg.Load = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Enqueue(0, 0, 10); err == nil {
		t.Error("self-send accepted")
	}
	if _, err := s.Enqueue(-1, 1, 10); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := s.Enqueue(0, 99, 10); err == nil {
		t.Error("bad destination accepted")
	}
	if _, err := s.Enqueue(0, 1, 0); err == nil {
		t.Error("empty payload accepted")
	}
}

func TestZeroLoadRunsWithoutGeneration(t *testing.T) {
	net := makeNet(t, 2, 2, 1)
	tab := makeTable(t, net, routes.UpDown)
	cfg := baseConfig(net, tab)
	cfg.Load = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		s.step()
	}
	if s.generatedTotal != 0 {
		t.Errorf("zero-load simulator generated %d messages", s.generatedTotal)
	}
}
