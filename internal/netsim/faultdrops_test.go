package netsim

import (
	"strings"
	"testing"

	"itbsim/internal/faults"
	"itbsim/internal/routes"
)

// dropScenario builds a quiet 4x4 torus sim with the fault machinery armed
// (a sentinel event in the far future keeps the engine alive without ever
// firing), hand-enqueues one message whose route crosses at least two
// switch-to-switch channels on distinct physical links, and returns the sim,
// the packet, and those first two channels. Every drop-taxonomy case is a
// fault landing somewhere along that known path.
func dropScenario(t *testing.T) (s *Sim, p *packet, c1, c2 int) {
	t.Helper()
	net := makeNet(t, 4, 4, 2)
	tab := makeTable(t, net, routes.UpDown)
	src, dst := -1, -1
	for a := 0; a < net.NumHosts() && src < 0; a++ {
		for b := 0; b < net.NumHosts(); b++ {
			if a == b {
				continue
			}
			r := tab.Route(a, b)
			if len(r.Segs) == 1 && len(r.Segs[0].Channels) >= 2 &&
				r.Segs[0].Channels[0]/2 != r.Segs[0].Channels[1]/2 {
				src, dst = a, b
				break
			}
		}
	}
	if src < 0 {
		t.Fatal("no host pair with a two-hop route found")
	}
	cfg := baseConfig(net, tab)
	cfg.Load = 1e-9 // quiet: the only traffic is the hand-enqueued message
	cfg.Faults = (&faults.Plan{}).FailLinkAt(0, 1<<40)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Enqueue(src, dst, 512); err != nil {
		t.Fatal(err)
	}
	p = s.nics[src].sendQ[len(s.nics[src].sendQ)-1]
	chans := p.route.Segs[0].Channels
	return s, p, chans[0], chans[1]
}

// scheduleNow splices fault events into the engine's plan to take effect at
// the current cycle, ahead of whatever the plan still holds.
func scheduleNow(s *Sim, evs ...faults.Event) {
	for i := range evs {
		evs[i].Cycle = s.now
	}
	s.fe.plan = append(evs, s.fe.plan[s.fe.planIdx:]...)
	s.fe.planIdx = 0
	s.fe.recomputeWake()
}

// onLink reports whether any of p's flits are in flight on channel c.
func onLink(s *Sim, p *packet, c int) bool {
	for _, f := range s.links[c].cable(s.seen) {
		if f.pkt == p {
			return true
		}
	}
	return false
}

// headerAt reports whether p is the head packet buffered at the input port
// channel c feeds, not yet streaming out (the window in which a same-cycle
// switch death and next-hop link death both claim it).
func headerAt(s *Sim, p *packet, c int) bool {
	rp := s.links[c].recvPort
	if rp < 0 {
		return false
	}
	in := &s.inPorts[rp].one[0]
	hs := bufferHead(in.buf, s.seen)
	return hs != nil && hs.pkt == p && in.conn < 0
}

// stepUntil advances the sim until pred holds, failing after limit cycles.
func stepUntil(t *testing.T, s *Sim, limit int, what string, pred func() bool) {
	t.Helper()
	for i := 0; i < limit; i++ {
		if pred() {
			return
		}
		s.step()
	}
	t.Fatalf("%s: not reached within %d cycles", what, limit)
}

// wantDrops asserts the engine's per-reason counters, and the exactly-once
// invariant that the reasons sum to the packet drop total.
func wantDrops(t *testing.T, s *Sim, want DropStats) {
	t.Helper()
	if s.fe.drops != want {
		t.Errorf("drop stats = %+v, want %+v", s.fe.drops, want)
	}
	if got := s.fe.drops.Total(); got != s.fe.droppedPackets {
		t.Errorf("reasons sum to %d, droppedPackets = %d: a packet was counted under more than one reason", got, s.fe.droppedPackets)
	}
}

// TestDropReasonTaxonomy is the table test over the drop-reason taxonomy:
// each reason fires for its own scenario, exactly one reason per packet,
// including the contested case of a header sitting in a dying switch whose
// route's next hop dies in the same event batch (DeadSwitch wins —
// precedence DeadSwitch > InFlight > DeadOutput).
func TestDropReasonTaxonomy(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"in-flight", func(t *testing.T) {
			// The first hop's cable dies under the packet's flits.
			s, p, c1, _ := dropScenario(t)
			stepUntil(t, s, 20_000, "flits on first channel", func() bool { return onLink(s, p, c1) })
			scheduleNow(s, faults.Event{Kind: faults.FailLink, ID: c1 / 2})
			s.step()
			wantDrops(t, s, DropStats{InFlight: 1})
		}},
		{"dead-switch", func(t *testing.T) {
			// The switch holding the buffered header dies.
			s, p, c1, _ := dropScenario(t)
			stepUntil(t, s, 20_000, "header buffered mid-route", func() bool { return headerAt(s, p, c1) })
			mid := s.inPorts[s.links[c1].recvPort].sw
			scheduleNow(s, faults.Event{Kind: faults.FailSwitch, ID: mid})
			s.step()
			wantDrops(t, s, DropStats{DeadSwitch: 1})
		}},
		{"dead-output", func(t *testing.T) {
			// The second hop dies while the packet is still on the first
			// cable: the drop happens later, at routing time, when the
			// header reaches the mid switch and requests the dead output.
			s, p, c1, c2 := dropScenario(t)
			stepUntil(t, s, 20_000, "flits on first channel only", func() bool {
				return onLink(s, p, c1) && !headerAt(s, p, c1)
			})
			scheduleNow(s, faults.Event{Kind: faults.FailLink, ID: c2 / 2})
			stepUntil(t, s, 20_000, "routing-time drop", func() bool { return s.fe.drops.Total() > 0 })
			wantDrops(t, s, DropStats{DeadOutput: 1})
		}},
		{"dead-switch-and-dead-output", func(t *testing.T) {
			// The contested case: one event batch kills both the switch
			// holding the header and the route's next-hop link. Exactly one
			// drop, classified DeadSwitch, regardless of the cable sweep's
			// link-ID order.
			s, p, c1, c2 := dropScenario(t)
			stepUntil(t, s, 20_000, "header buffered mid-route", func() bool { return headerAt(s, p, c1) })
			mid := s.inPorts[s.links[c1].recvPort].sw
			scheduleNow(s,
				faults.Event{Kind: faults.FailLink, ID: c2 / 2},
				faults.Event{Kind: faults.FailSwitch, ID: mid},
			)
			s.step()
			wantDrops(t, s, DropStats{DeadSwitch: 1})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// TestDropNoRouteAccounted covers the dispatch/table-swap reason: a switch
// death strands its hosts, so retries for them find no surviving route and
// must be accounted as NoRoute — still exactly once per attempt.
func TestDropNoRouteAccounted(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	plan := (&faults.Plan{}).FailSwitchAt(5, 30_000)
	cfg := faultConfig(t, net, routes.UpDown, plan)
	cfg.Load = 0.05
	cfg.MeasureMessages = 1200
	cfg.Params = DefaultParams()
	cfg.Params.RetryTimeoutCycles = 1000
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, res)
	if res.Drops.NoRoute == 0 {
		t.Errorf("stranded hosts produced no NoRoute drops: %+v", res.Drops)
	}
}

// TestDropReasonStrings pins the taxonomy's wire names: every reason below
// numDropReasons has a stable label (they appear in traces and JSON output).
func TestDropReasonStrings(t *testing.T) {
	for r := DropReason(0); r < numDropReasons; r++ {
		if s := r.String(); strings.HasPrefix(s, "DropReason(") {
			t.Errorf("reason %d has no name", int(r))
		}
	}
}
