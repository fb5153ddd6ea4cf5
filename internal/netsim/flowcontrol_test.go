package netsim

import (
	"fmt"
	"strings"
	"testing"

	"itbsim/internal/routes"
)

// TestStopGoSignalsObserved drives a blocking scenario and checks the stop
// & go protocol at the flit level: some sender must actually be stopped,
// slack occupancy must exceed the stop threshold but never the 80-byte
// buffer, and after the network drains every stop state must have been
// released by a go.
func TestStopGoSignalsObserved(t *testing.T) {
	net := makeNet(t, 2, 2, 2)
	tab := makeTable(t, net, routes.UpDown)
	s := newQuiet(t, net, tab)
	s.measuring = true

	// Hosts 0 and 1 share switch 0; both send long packets to host 6 on
	// switch 3. The second worm blocks behind the first and backpressure
	// must propagate to its source NIC.
	mk := func(src, dst int, id int64) {
		r := s.cfg.Table.Route(src, dst)
		p := &packet{id: id, srcHost: src, dstHost: dst, route: r, payload: 2048, measured: true}
		p.wireFlits = 2048 + headerFlits(r)
		s.outstanding++
		s.nics[src].sendQ = append(s.nics[src].sendQ, p)
	}
	mk(0, 6, 1)
	mk(1, 6, 2)

	sawStop := false
	maxOcc := 0
	for i := 0; i < 3_000_000 && s.measCount < 2; i++ {
		s.step()
		for li := range s.links {
			if s.links[li].stopped {
				sawStop = true
			}
		}
		for pi := range s.inPorts {
			if occ := s.inPorts[pi].one[0].buf.occ(s.seen); occ > maxOcc {
				maxOcc = occ
			}
		}
	}
	if s.measCount != 2 {
		t.Fatal("messages not delivered")
	}
	if !sawStop {
		t.Error("no sender was ever stopped despite a blocked worm")
	}
	if maxOcc <= s.p.StopThreshold {
		t.Errorf("max slack occupancy %d never crossed the stop threshold %d", maxOcc, s.p.StopThreshold)
	}
	if maxOcc > s.p.SlackBufferFlits {
		t.Errorf("slack occupancy %d exceeded the %d-byte buffer", maxOcc, s.p.SlackBufferFlits)
	}
	// Drain the in-flight go signals, then every sender must be released.
	for i := 0; i < 4*s.p.LinkFlightCycles; i++ {
		s.step()
	}
	for li := range s.links {
		if s.links[li].stopped {
			t.Errorf("link %d still stopped after the network drained", li)
		}
	}
}

// TestBackpressureReachesSource verifies that a worm much longer than the
// path buffering keeps most of its flits at the source while blocked: the
// source NIC cannot have sent more than the path capacity plus what the
// destination absorbed.
func TestBackpressureReachesSource(t *testing.T) {
	net := makeNet(t, 2, 2, 2)
	tab := makeTable(t, net, routes.UpDown)
	s := newQuiet(t, net, tab)
	s.measuring = true

	// First a blocker: host 2 (switch 1) to host 6 (switch 3), long.
	// Then a victim from host 0 (switch 0) routed through the same final
	// link into switch 3.
	mk := func(src, dst int, id int64, bytes int) *packet {
		r := s.cfg.Table.Route(src, dst)
		p := &packet{id: id, srcHost: src, dstHost: dst, route: r, payload: bytes, measured: true}
		p.wireFlits = bytes + headerFlits(r)
		s.outstanding++
		s.nics[src].sendQ = append(s.nics[src].sendQ, p)
		return p
	}
	blocker := mk(2, 6, 1, 4096)
	victim := mk(0, 7, 2, 4096) // host 7 also on switch 3

	// Let the contention develop, then inspect while the blocker still
	// streams.
	for i := 0; i < 3000; i++ {
		s.step()
	}
	_ = blocker
	sent := int(victim.wireFlits) - remainingAtSource(s, victim)
	// Path capacity from host 0 to the blocked point: NIC link flight +
	// two slack buffers + a link in flight, far below the full worm.
	pathCap := 2*s.p.SlackBufferFlits + 3*s.p.LinkFlightCycles + 64
	if sent > pathCap {
		t.Errorf("victim pushed %d flits into a blocked path (capacity ~%d): no backpressure", sent, pathCap)
	}
	// Sanity: everything still completes.
	for i := 0; i < 3_000_000 && s.measCount < 2; i++ {
		s.step()
	}
	if s.measCount != 2 {
		t.Fatal("messages not delivered after unblocking")
	}
}

// remainingAtSource counts how many flits of the packet have not yet left
// the source NIC.
func remainingAtSource(s *Sim, p *packet) int {
	n := &s.nics[p.srcHost]
	if n.cur.pkt == p {
		return n.cur.toSend - n.cur.sent
	}
	for i := n.sendQH; i < len(n.sendQ); i++ {
		if n.sendQ[i] == p {
			return p.wireFlits
		}
	}
	return 0
}

// TestSlackOverflowPanicsUnderBothLoops shrinks every switch input's slack
// buffer to two flits over the stop threshold, less than the flits a stop
// signal lets through, and requires both step loops to panic with the same
// overflow at the same cycle: a committed run must not move or hide the
// conservation check. The 4x4 ITB-RR regime streams in committed runs
// until the first stop; the backpressure run stops links throughout.
func TestSlackOverflowPanicsUnderBothLoops(t *testing.T) {
	configs := map[string]func(t testing.TB) Config{
		"itbrr":        func(t testing.TB) Config { return regimeConfig(t, func(*Config) {}) },
		"backpressure": backpressureConfig,
	}
	for _, name := range []string{"itbrr", "backpressure"} {
		t.Run(name, func(t *testing.T) {
			var got []string
			for _, loop := range stepLoops {
				cfg := configs[name](t)
				loop.apply(&cfg)
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				s.laneFlits = s.p.StopThreshold + 2
				msg := func() (msg string) {
					defer func() { msg = fmt.Sprint(recover()) }()
					for s.now < 2_000_000 {
						s.step()
					}
					return "no overflow"
				}()
				if !strings.Contains(msg, "slack buffer overflow") {
					t.Fatalf("%s: %s at cycle %d, want a slack buffer overflow", loop.name, msg, s.now)
				}
				got = append(got, fmt.Sprintf("cycle %d: %s", s.now, msg))
			}
			if got[0] != got[1] {
				t.Errorf("the step loops overflow differently:\n%s: %s\n%s: %s",
					stepLoops[0].name, got[0], stepLoops[1].name, got[1])
			}
		})
	}
}

// TestCreditPanicsUnderBothLoops raises one credit link's count for a lane
// to the buffer depth at a cycle boundary, alike in both step loops, while
// a return for that lane is still on the link's signal ring, and requires
// both loops to fail the credit conservation check on that return, naming
// the same link and lane. Each loop first settles (settleParked), then
// waits from cycle 5,000 for the first boundary at which a credit link
// whose sender is idle (an output with no connected lane, a NIC not
// injecting) has its oldest return arriving on the next cycle, so that no
// flit can spend the raised count before the return comes; the state the
// choice reads is alike in both loops, so they pick the same link at the
// same cycle. The dense loop takes every return on its arrival cycle. The
// active-set loop takes it later, at the sender's next read of the count,
// but never earlier and never not at all: every read takes the returns
// that have arrived before it spends, and settleParked takes every return
// by finalize.
func TestCreditPanicsUnderBothLoops(t *testing.T) {
	var got []string
	var cycles []int64
	for _, loop := range stepLoops {
		cfg := vcConfig(t, vcNets(t)[0], 2)
		cfg.Load = 0.05
		loop.apply(&cfg)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		raised, at := "", int64(-1)
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			for s.now < 200_000 {
				s.step()
				if at >= 0 || s.now < 5_000 {
					continue
				}
				s.settleParked(s.now - 1)
				for i := range s.links {
					if l := &s.links[i]; idleSender(s, i) && l.signals.n > 0 && l.signals.front().arrive == s.now {
						v := l.signals.front().vc
						l.credits[v] = int16(s.p.VCBufFlits)
						raised, at = fmt.Sprintf("link %d VC %d", i, v), s.now
						break
					}
				}
			}
			s.finalize(false)
			return "no panic"
		}()
		if at < 0 || !strings.Contains(msg, raised+" credits above buffer depth") {
			t.Fatalf("%s: %s at cycle %d after raising %q at cycle %d, want its credits above buffer depth", loop.name, msg, s.now, raised, at)
		}
		got = append(got, fmt.Sprintf("raised %s at cycle %d: %s", raised, at, msg))
		cycles = append(cycles, s.now)
	}
	if got[0] != got[1] {
		t.Errorf("the step loops fail the credit check differently:\n%s: %s\n%s: %s",
			stepLoops[0].name, got[0], stepLoops[1].name, got[1])
	}
	if cycles[1] < cycles[0] {
		t.Errorf("the %s loop fails the credit check at cycle %d, before the %s loop at cycle %d",
			stepLoops[1].name, cycles[1], stepLoops[0].name, cycles[0])
	}
}

// idleSender reports whether the sender of link lid has nothing to send: a
// switch output with no connected lane, or a NIC with no injection.
func idleSender(s *Sim, lid int) bool {
	if oi := s.outPortOfLink[lid]; oi >= 0 {
		return s.outPorts[oi].nconn == 0
	}
	return !s.nics[lid-s.numChannels].active
}

// TestReceptionPanicsUnderBothLoops breaks one NIC's reception state at a
// cycle boundary, alike in both step loops, and requires each of the
// reception's conservation checks to fire with the same message at the
// same cycle under both: the active-set loop hands a NIC its flits a run
// at a time, after their arrival, but a packet's first flit and its tail
// act on arrival, and the checks fire there. Each break waits from cycle
// 5,000 for the first NIC in a state it applies to; the state it reads is
// set and cleared only by first flits and tails, so both loops pick the
// same NIC at the same cycle. The stop & go breaks run the 4×4 ITB-RR
// regime on one lane; the two-lane breaks run the 4×4 torus on two lanes
// and break lane 1.
func TestReceptionPanicsUnderBothLoops(t *testing.T) {
	cases := []struct {
		name, want string
		lanes      int
		// brk breaks NIC n's reception and reports whether it applied.
		brk func(s *Sim, n *nic) bool
	}{
		{"delivery-count", "delivered", 1, func(s *Sim, n *nic) bool {
			if r := &n.rx[0]; r.pkt == nil || r.reinj != nil {
				return false
			}
			n.rx[0].expected++
			return true
		}},
		{"new-packet", "new packet while 1/2 flits of previous outstanding", 1, func(s *Sim, n *nic) bool {
			if n.rx[0].pkt != nil {
				return false
			}
			n.rx[0] = rxLane{pkt: &packet{}, count: 1, expected: 2}
			return true
		}},
		{"itb-count", "ITB reception count mismatch", 1, func(s *Sim, n *nic) bool {
			if n.rx[0].reinj == nil {
				return false
			}
			n.rx[0].reinj.expected++
			return true
		}},
		{"vc2/delivery-count", "delivered", 2, func(s *Sim, n *nic) bool {
			if n.rx[1].pkt == nil {
				return false
			}
			n.rx[1].expected++
			return true
		}},
		{"vc2/new-packet", "lane 1: new packet while 1/2 flits of previous outstanding", 2, func(s *Sim, n *nic) bool {
			// A NIC whose down-link carries a lane-1 flit in flight: routes
			// reach some hosts on lane 0 only.
			if n.rx[1].pkt != nil || !s.links[s.hostDownLink(n.host)].lanes[1].inFlight(s.now) {
				return false
			}
			n.rx[1] = rxLane{pkt: &packet{}, count: 1, expected: 2}
			return true
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			for _, loop := range stepLoops {
				cfg := regimeConfig(t, func(*Config) {})
				if tc.lanes > 1 {
					cfg = vcConfig(t, makeNet(t, 4, 4, 2), tc.lanes)
				}
				loop.apply(&cfg)
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				broken := -1
				msg := func() (msg string) {
					defer func() { msg = fmt.Sprint(recover()) }()
					for s.now < 2_000_000 {
						s.step()
						for h := 0; broken < 0 && s.now >= 5_000 && h < len(s.nics); h++ {
							if tc.brk(s, &s.nics[h]) {
								broken = h
							}
						}
					}
					return "no panic"
				}()
				if broken < 0 || !strings.Contains(msg, tc.want) {
					t.Fatalf("%s: %s at cycle %d after breaking host %d, want %q", loop.name, msg, s.now, broken, tc.want)
				}
				got = append(got, fmt.Sprintf("host %d, cycle %d: %s", broken, s.now, msg))
			}
			if got[0] != got[1] {
				t.Errorf("the step loops fail the reception check differently:\n%s: %s\n%s: %s",
					stepLoops[0].name, got[0], stepLoops[1].name, got[1])
			}
		})
	}
}
