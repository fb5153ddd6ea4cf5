package netsim

import (
	"reflect"
	"strings"
	"testing"

	"itbsim/internal/faults"
	"itbsim/internal/routes"
	"itbsim/internal/topology"
)

// faultConfig assembles a faulted run: plan + reconfiguration controller
// wired the way runner does it.
func faultConfig(t *testing.T, net *topology.Network, sch routes.Scheme, plan *faults.Plan) Config {
	t.Helper()
	tab := makeTable(t, net, sch)
	cfg := baseConfig(net, tab)
	cfg.Faults = plan
	cfg.Reconfigurer = faults.NewController(net, 0, routes.DefaultConfig(sch))
	return cfg
}

// checkConservation asserts the message- and packet-level identities every
// run must satisfy, faulted or not.
func checkConservation(t *testing.T, r *Result) {
	t.Helper()
	if got := r.DeliveredMessages + r.LostMessages + r.OutstandingAtEnd; got != r.GeneratedMessages {
		t.Errorf("message conservation broken: generated %d != delivered %d + lost %d + outstanding %d",
			r.GeneratedMessages, r.DeliveredMessages, r.LostMessages, r.OutstandingAtEnd)
	}
	if r.Drops.Total() != r.DroppedPackets {
		t.Errorf("drop reasons sum to %d, DroppedPackets = %d", r.Drops.Total(), r.DroppedPackets)
	}
	// Every transmission attempt ends delivered, dropped, or alive at the
	// end; attempts alive at the end belong to outstanding messages.
	attempts := r.GeneratedMessages + r.Retransmits
	if terminal := r.DeliveredMessages + r.DroppedPackets; terminal > attempts {
		t.Errorf("more terminal attempts (%d) than attempts made (%d)", terminal, attempts)
	} else if attempts-terminal > r.OutstandingAtEnd {
		t.Errorf("%d attempts unaccounted for (outstanding %d)", attempts-terminal, r.OutstandingAtEnd)
	}
}

// busiestLink returns the physical link the routing table leans on most, so
// failing it is guaranteed to hit traffic regardless of the scheme's route
// shapes (ITB minimal routes avoid different links than up*/down* ones).
func busiestLink(tab *routes.Table, net *topology.Network) int {
	use := make([]int, len(net.Links))
	for s := 0; s < net.Switches; s++ {
		for d := 0; d < net.Switches; d++ {
			for _, r := range tab.Alternatives(s, d) {
				for _, seg := range r.Segs {
					for _, c := range seg.Channels {
						use[c/2]++
					}
				}
			}
		}
	}
	best := 0
	for l, n := range use {
		if n > use[best] {
			best = l
		}
	}
	return best
}

func TestSingleLinkFailureRecovers(t *testing.T) {
	for _, sch := range []routes.Scheme{routes.UpDown, routes.ITBSP, routes.ITBRR} {
		t.Run(sch.String(), func(t *testing.T) {
			net := makeNet(t, 4, 4, 2)
			tab := makeTable(t, net, sch)
			plan := (&faults.Plan{}).FailLinkAt(busiestLink(tab, net), 40_000)
			cfg := faultConfig(t, net, sch, plan)
			cfg.Load = 0.05 // enough traffic that the failing link is busy
			cfg.MeasureMessages = 600
			cfg.Params = DefaultParams()
			cfg.Params.RetryTimeoutCycles = 2000 // retries land inside the run
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			checkConservation(t, res)
			if res.Truncated {
				t.Fatalf("faulted run truncated: %+v", res.Stall)
			}
			if len(res.Reconfigs) != 1 {
				t.Fatalf("expected 1 reconfiguration, got %d (%d failures: %s)",
					len(res.Reconfigs), res.ReconfigFailures, res.ReconfigError)
			}
			rc := res.Reconfigs[0]
			if rc.EventCycle != 40_000 {
				t.Errorf("reconfig event cycle = %d, want 40000", rc.EventCycle)
			}
			if rc.SwapCycle <= rc.DetectCycle || rc.DetectCycle <= rc.EventCycle {
				t.Errorf("reconfig timeline out of order: %+v", rc)
			}
			if rc.LostHosts != 0 {
				t.Errorf("single link failure lost %d hosts on a torus", rc.LostHosts)
			}
			if res.DroppedPackets == 0 {
				t.Error("no packets dropped by a mid-run link failure under load")
			}
			if res.Retransmits == 0 {
				t.Error("no retransmissions despite drops")
			}
			if res.LostMessages != 0 {
				t.Errorf("%d messages lost although the degraded torus stays connected", res.LostMessages)
			}
			// The run must finish after the failure: deliveries continue
			// on the recomputed tables.
			if res.Cycles <= rc.SwapCycle {
				t.Errorf("run ended at %d before the swap at %d proved itself", res.Cycles, rc.SwapCycle)
			}
		})
	}
}

func TestSwitchFailureLosesItsHosts(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	// Fail a switch that is not the mapper's (host 0 sits on switch 0).
	plan := (&faults.Plan{}).FailSwitchAt(5, 30_000)
	cfg := faultConfig(t, net, routes.UpDown, plan)
	cfg.Load = 0.05
	cfg.MeasureMessages = 1200 // long enough for retries to burn out
	cfg.Params = DefaultParams()
	cfg.Params.RetryTimeoutCycles = 1000 // fast backoff so losses happen in-window
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, res)
	if len(res.Reconfigs) != 1 {
		t.Fatalf("expected 1 reconfiguration, got %d (%s)", len(res.Reconfigs), res.ReconfigError)
	}
	if got := res.Reconfigs[0].LostHosts; got != 2 {
		t.Errorf("switch 5 death should strand its 2 hosts, LostHosts = %d", got)
	}
	if res.LostMessages == 0 {
		t.Error("no messages lost although two hosts became unreachable")
	}
	// Which drop reasons fire depends on what the dying switch held at the
	// event instant; what must hold is that traffic was destroyed at all.
	if res.DroppedPackets == 0 {
		t.Errorf("switch death destroyed no traffic: %+v", res.Drops)
	}
}

func TestLinkRepairRestoresRoutes(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	plan := (&faults.Plan{}).FailLinkAt(3, 30_000)
	plan.RepairLinkAt(3, 120_000)
	cfg := faultConfig(t, net, routes.UpDown, plan)
	cfg.MeasureMessages = 600
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, res)
	if len(res.Reconfigs) != 2 {
		t.Fatalf("fail+repair should reconfigure twice, got %d (%s)", len(res.Reconfigs), res.ReconfigError)
	}
	if res.Reconfigs[1].LostHosts != 0 {
		t.Errorf("post-repair reconfiguration still reports %d lost hosts", res.Reconfigs[1].LostHosts)
	}
}

func TestMapperSwitchDeathKeepsStaleTables(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	// Host 0 (the mapper) sits on switch 0; killing it leaves no live
	// vantage point, so reconfiguration must fail and the run must still
	// terminate via retries and abandonment.
	plan := (&faults.Plan{}).FailSwitchAt(0, 30_000)
	cfg := faultConfig(t, net, routes.UpDown, plan)
	cfg.MeasureMessages = 200
	cfg.MaxCycles = 4_000_000
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, res)
	if res.ReconfigFailures == 0 {
		t.Fatal("reconfiguration should have failed with the mapper's switch dead")
	}
	if !strings.Contains(res.ReconfigError, "mapper") {
		t.Errorf("reconfig error does not mention the mapper: %q", res.ReconfigError)
	}
	if len(res.Reconfigs) != 0 {
		t.Errorf("no table swap should have happened, got %d", len(res.Reconfigs))
	}
}

func TestFaultedRunDeterminism(t *testing.T) {
	run := func() *Result {
		net := makeNet(t, 4, 4, 2)
		plan := (&faults.Plan{}).FailLinkAt(5, 40_000)
		cfg := faultConfig(t, net, routes.ITBRR, plan)
		cfg.MeasureMessages = 400
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical faulted runs diverged:\n%+v\nvs\n%+v", a, b)
	}
}

func TestHealthyRunUnchangedByFaultMachinery(t *testing.T) {
	// A run with an empty plan must be byte-identical to one with no plan
	// at all: the fault machinery must not perturb healthy simulations.
	run := func(plan *faults.Plan) *Result {
		net := makeNet(t, 4, 4, 2)
		tab := makeTable(t, net, routes.UpDown)
		cfg := baseConfig(net, tab)
		cfg.Faults = plan
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(nil), run(&faults.Plan{})
	if !reflect.DeepEqual(a, b) {
		t.Error("empty fault plan perturbed the run")
	}
}

func TestStallDumpOnTruncation(t *testing.T) {
	net := makeNet(t, 2, 2, 1)
	tab := makeTable(t, net, routes.UpDown)
	cfg := baseConfig(net, tab)
	cfg.Load = 0.5        // keep messages in flight at the cutoff
	cfg.MaxCycles = 2_000 // too short for the warmup to finish
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("run should have truncated at 2000 cycles")
	}
	if res.Stall == nil {
		t.Fatal("truncated run carries no stall dump")
	}
	if res.Stall.Outstanding == 0 || len(res.Stall.Oldest) == 0 {
		t.Errorf("stall dump empty: %+v", res.Stall)
	}
	p := res.Stall.Oldest[0]
	if p.AgeCycles <= 0 || p.Where == "" || p.RouteLeft == "" {
		t.Errorf("stall entry incomplete: %+v", p)
	}
}

// TestEnqueueRetriedUnderFault sends one hand-enqueued UP/DOWN message
// whose first link fails while the packet streams across it. The message
// must be retried like a generated one and delivered over the recomputed
// tables, not left outstanding until the deadlock watchdog fires.
func TestEnqueueRetriedUnderFault(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	src, dst := 0, net.NumHosts()-1
	first := makeTable(t, net, routes.UpDown).Route(src, dst).Segs[0].Channels[0] / 2
	for _, at := range []int64{40, 80, 150} {
		cfg := faultConfig(t, net, routes.UpDown, (&faults.Plan{}).FailLinkAt(first, at))
		cfg.Load = 0
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Enqueue(src, dst, 512); err != nil {
			t.Fatal(err)
		}
		res, err := s.RunUntilDrained()
		if err != nil {
			t.Fatalf("link %d failing at cycle %d: %v", first, at, err)
		}
		checkConservation(t, res)
		if res.DeliveredMessages != 1 || res.DroppedPackets != 1 || res.Retransmits != 1 || len(res.Reconfigs) != 1 {
			t.Errorf("link %d failing at cycle %d: delivered %d, dropped %d, retransmits %d, reconfigs %d; want 1 each",
				first, at, res.DeliveredMessages, res.DroppedPackets, res.Retransmits, len(res.Reconfigs))
		}
	}
}

// countingSelector wraps a selector and counts the Select calls each of
// its clones serves, indexed by the order the clones were made in.
type countingSelector struct {
	routes.Selector
	clone int
	calls *[]int
}

func (c *countingSelector) Select(srcHost, dstSwitch int, alts []*routes.Route) *routes.Route {
	(*c.calls)[c.clone]++
	return c.Selector.Select(srcHost, dstSwitch, alts)
}

func (c *countingSelector) Clone() routes.Selector {
	*c.calls = append(*c.calls, 0)
	return &countingSelector{Selector: c.Selector.Clone(), clone: len(*c.calls) - 1, calls: c.calls}
}

// TestSelectorFollowsTableSwap runs the adaptive selector through the
// fault storm: each table swap must install a fresh clone of the
// configured selector, and the run must keep consulting it after the
// first swap instead of falling back to round-robin.
func TestSelectorFollowsTableSwap(t *testing.T) {
	calls := []int{0}
	sel := &countingSelector{Selector: routes.NewAdaptiveSelector(routes.DefaultAdaptiveConfig()), calls: &calls}
	res, err := Run(selectorConfig(t, sel, true))
	if err != nil {
		t.Fatal(err)
	}
	// Clone 0 is the configured selector itself, clone 1 the one New
	// installs, and every swap adds one more.
	if len(res.Reconfigs) == 0 || len(calls) != 2+len(res.Reconfigs) {
		t.Fatalf("%d reconfigurations made %d selector clones, want %d", len(res.Reconfigs), len(calls), 2+len(res.Reconfigs))
	}
	if calls[0] != 0 || calls[1] == 0 || calls[2] == 0 {
		t.Errorf("Select calls per clone %v: want none on the configured selector, some before and after the first swap", calls)
	}
}
