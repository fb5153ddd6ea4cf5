package netsim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"itbsim/internal/routes"
	"itbsim/internal/topology"
)

// TestConservationUnderRandomParams hardens the flit-level model: for
// random (valid) parameter settings — buffer sizes, thresholds, routing
// latencies, flight times, ITB delays, bubbles — every generated message is
// still delivered and the slack buffers never overflow (the overflow panic
// inside inPort.arrive is the assertion). Each setting runs under both step
// loops, whose results must be identical: an arrival the active-set loop
// skips but that acts under some flight, threshold, bubble or ITB delay
// shows up as a difference.
func TestConservationUnderRandomParams(t *testing.T) {
	if testing.Short() {
		t.Skip("simulations too slow for -short")
	}
	net, err := topology.NewTorus(4, 4, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := routes.Build(net, routes.DefaultConfig(routes.ITBRR))
	if err != nil {
		t.Fatal(err)
	}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := DefaultParams()
		p.LinkFlightCycles = 1 + rng.Intn(12)
		p.RoutingCycles = rng.Intn(40)
		p.GoThreshold = 8 + rng.Intn(32)
		p.StopThreshold = p.GoThreshold + 4 + rng.Intn(24)
		p.SlackBufferFlits = p.StopThreshold + 2*p.LinkFlightCycles + rng.Intn(16)
		p.ITBDetectFlits = 1 + rng.Intn(60)
		p.ITBDMAFlits = rng.Intn(60)
		p.SourceBubblePeriod = rng.Intn(3) * (1 + rng.Intn(20)) // often 0
		if err := p.Validate(); err != nil {
			return true // rejected combinations are fine
		}
		cfg := Config{
			Net:   net,
			Table: tab,
			Dest: func(src int, r *RNG) int {
				d := r.Intn(net.NumHosts() - 1)
				if d >= src {
					d++
				}
				return d
			},
			Load:            0.02,
			MessageBytes:    64 + rng.Intn(512),
			Seed:            seed,
			WarmupMessages:  10,
			MeasureMessages: 80,
			MaxCycles:       10_000_000,
			Params:          p,
		}
		var results [2]*Result
		for i, loop := range stepLoops {
			c := cfg
			loop.apply(&c)
			res, err := Run(c)
			if err != nil {
				t.Logf("seed %d params %+v, %s loop: %v", seed, p, loop.name, err)
				return false
			}
			results[i] = res
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Logf("seed %d params %+v: the loops' results differ", seed, p)
			return false
		}
		return results[0].DeliveredMeasured >= 80
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
