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
