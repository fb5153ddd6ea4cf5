package netsim

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"sync"
	"testing"

	"itbsim/internal/faults"
	"itbsim/internal/metrics"
	"itbsim/internal/routes"
	"itbsim/internal/topology"
)

// goldenConfig is a run that exercises every subsystem the active-set
// scheduler touches: wormhole contention, ITB ejection/re-injection,
// windowed metrics, and (optionally) the fault engine.
func goldenConfig(t *testing.T, net *topology.Network, sch routes.Scheme, faulted bool) Config {
	t.Helper()
	tab := makeTable(t, net, sch)
	cfg := baseConfig(net, tab)
	cfg.Load = 0.008
	cfg.WarmupMessages = 50
	cfg.MeasureMessages = 250
	cfg.CollectLinkUtil = true
	cfg.Metrics = &metrics.Config{WindowCycles: 4096}
	if faulted {
		plan := (&faults.Plan{}).
			FailLinkAt(busiestLink(tab, net), 40_000).
			RepairLinkAt(busiestLink(tab, net), 160_000)
		cfg.Faults = plan
		cfg.Reconfigurer = faults.NewController(net, 0, routes.DefaultConfig(sch))
		cfg.Load = 0.02 // enough traffic that the failing link is busy
	}
	return cfg
}

// TestActiveSetMatchesDense is the golden equivalence check: on the 8x8
// torus with 2 hosts per switch, for all three schemes, with and without
// a fault plan, and on the 4x4 torus far past saturation, healthy and with
// a switch failing mid-run, the active-set loop must produce a Result
// byte-identical to the dense per-cycle scan — including metrics series,
// latency histograms, drop accounting, and the backpressure and stop & go
// idle counters. The switch failure's table swap drops queued packets of
// NICs parked with full source queues, which must wake them.
func TestActiveSetMatchesDense(t *testing.T) {
	same := func(t *testing.T, mk func() Config) {
		dense := mk()
		dense.denseStep = true
		want, err := Run(dense)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(mk())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("active-set result diverges from dense scan:\ndense:  %+v\nactive: %+v", want, got)
		}
	}
	net := makeNet(t, 8, 8, 2)
	for _, sch := range []routes.Scheme{routes.UpDown, routes.ITBSP, routes.ITBRR} {
		for _, faulted := range []bool{false, true} {
			name := sch.String()
			if faulted {
				name += "/faulted"
			}
			t.Run(name, func(t *testing.T) {
				same(t, func() Config { return goldenConfig(t, net, sch, faulted) })
			})
		}
	}
	t.Run("backpressure", func(t *testing.T) {
		same(t, func() Config { return backpressureConfig(t) })
	})
	t.Run("backpressure/switch-fault", func(t *testing.T) {
		same(t, func() Config {
			cfg := backpressureConfig(t)
			cfg.Faults = (&faults.Plan{}).FailSwitchAt(5, 6_000)
			cfg.Reconfigurer = faults.NewController(cfg.Net, 0, routes.DefaultConfig(routes.UpDown))
			return cfg
		})
	})
}

// checkActiveCover is the brute-force stranded-work scan: after any step,
// every component the dense loop would visit to an observable effect must
// be reachable by the active-set loop — on the arrival wheel, present in
// its set, asleep with its next generation time on the generation timer
// heap (a NIC whose only pending work is message generation), or parked on
// a stopped link until the go signal wakes it. A parked NIC is injecting
// on a live, stopped stop & go up-link with no DMA pending, and its source
// queue is full or a wake-up fires by its next generation time; a parked
// switch output is a connection on a stopped link whose input holds flits.
// Below the component sets, every switch's port masks must equal what its
// output ports' states imply (lane requests and connections included).
// Every cable's flits in flight must arrive in strictly increasing cycles
// within the next flight, and every input's occupancy, which the simulator
// reads from the arrival stamps, must equal a count of its arrived flits.
func checkActiveCover(t *testing.T, s *Sim, cycle int64) {
	t.Helper()
	for i := range s.links {
		checkCable(t, s, cycle, i)
	}
	for i := range s.switches {
		sw := &s.switches[i]
		var setup, conn, full, req uint32
		for k, oi := range sw.outs {
			op := &s.outPorts[oi]
			bit := uint32(1) << uint(k)
			lanes := 0
			var requests uint32
			for _, ol := range op.lanes() {
				if ol.conn >= 0 {
					lanes++
				}
				requests |= ol.req
			}
			if lanes != op.nconn {
				t.Fatalf("cycle %d: switch %d output %d has %d connected lanes but nconn %d",
					cycle, i, k, lanes, op.nconn)
			}
			if op.state == outSetup {
				setup |= bit
			}
			if lanes > 0 {
				conn |= bit
			}
			if lanes == len(op.lanes()) {
				full |= bit
			}
			if requests != 0 {
				req |= bit
			}
		}
		if sw.setupOuts != setup || sw.connOuts != conn || sw.fullOuts != full || sw.reqOuts != req {
			t.Fatalf("cycle %d: switch %d port masks setup=%b conn=%b full=%b req=%b, its ports imply setup=%b conn=%b full=%b req=%b",
				cycle, i, sw.setupOuts, sw.connOuts, sw.fullOuts, sw.reqOuts, setup, conn, full, req)
		}
		if setup|req != 0 && !s.routingSet.has(i) {
			t.Fatalf("cycle %d: switch %d has setups %b and requests %b but is not in the routing set",
				cycle, i, setup, req)
		}
		if awake := conn &^ sw.sleepOuts; awake != 0 && !s.transferSet.has(i) {
			t.Fatalf("cycle %d: switch %d has awake connections %b but is not in the transfer set",
				cycle, i, awake)
		}
		if sw.sleepOuts&^conn != 0 {
			t.Fatalf("cycle %d: switch %d puts outputs %b to sleep that are not connected (connections %b)",
				cycle, i, sw.sleepOuts, conn)
		}
		for k, oi := range sw.outs {
			if s.outPorts[oi].commitMask != 0 && sw.sleepOuts&(1<<uint(k)) == 0 {
				t.Fatalf("cycle %d: switch %d output %d holds a commitment but is on the transfer walk", cycle, i, k)
			}
		}
		for m := sw.sleepOuts; m != 0; m &= m - 1 {
			k := bits.TrailingZeros32(m)
			op := &s.outPorts[sw.outs[k]]
			if op.commitMask != 0 {
				checkCommit(t, s, cycle, op)
				continue
			}
			if !s.links[op.link].stopped || op.nconn != 1 || len(op.lanes()) != 1 ||
				s.inPorts[op.one[0].conn].one[0].buf.occ(s.seen) == 0 {
				t.Fatalf("cycle %d: switch %d output %d is parked but its link is not stopped or its input is empty",
					cycle, i, k)
			}
		}
	}
	for h := range s.nics {
		n := &s.nics[h]
		if s.nicSet.has(h) {
			if s.parkedNICs.has(h) {
				t.Fatalf("cycle %d: host %d is both in the NIC set and parked", cycle, h)
			}
			continue
		}
		gen := !n.stopGen && !math.IsInf(s.genIntervalCycles, 1)
		due := int64(math.Ceil(n.nextGen))
		wakes := func(heap timerHeap) bool {
			for _, gt := range heap {
				if gt.key == int64(h) && gt.at <= due {
					return true
				}
			}
			return false
		}
		armed := n.genArmed && wakes(s.genTimers)
		if s.parkedNICs.has(h) {
			l := &s.links[n.upLink]
			if n.commitMask != 0 {
				checkCommitNIC(t, s, cycle, n)
				wake := n.commitAt + int64(63-bits.LeadingZeros64(n.commitMask)) + 1
				if gen && n.sendQLen() < s.p.SourceQueueCap && wake > due {
					t.Fatalf("cycle %d: committed host %d has room in its queue and wakes at cycle %d, after its next message is due at %d",
						cycle, h, wake, due)
				}
				continue
			} else if !n.active || l.credits != nil || l.down || !l.stopped || len(n.pending) > 0 {
				t.Fatalf("cycle %d: host %d is parked but not injecting on a live, stopped stop & go up-link with no DMA pending",
					cycle, h)
			}
			if gen && n.sendQLen() < s.p.SourceQueueCap && !armed && !wakes(s.parkTimers) {
				t.Fatalf("cycle %d: host %d is parked with room in its queue and no wake-up by cycle %d", cycle, h, due)
			}
			continue
		}
		needNonGen := n.active || len(n.pending) > 0 ||
			((n.reinjH < len(n.reinjQ) || n.sendQH < len(n.sendQ)) &&
				!(s.fe != nil && s.fe.down[n.upLink]))
		if needNonGen {
			t.Fatalf("cycle %d: host %d has NIC work but is not in the NIC set", cycle, h)
		}
		if gen {
			if !n.genArmed {
				t.Fatalf("cycle %d: host %d is asleep with no generation timer armed", cycle, h)
			}
			if !armed {
				t.Fatalf("cycle %d: host %d armed but no heap entry fires by cycle %d", cycle, h, due)
			}
		}
	}
	// A buffered head packet must always hold a routing claim — stranded
	// regardless of scheduler if not.
	for i := range s.inPorts {
		ip := &s.inPorts[i]
		for v, in := range ip.lanes() {
			if bufferHead(in.buf, s.seen) != nil && in.conn < 0 && in.pendingOut < 0 {
				t.Fatalf("cycle %d: switch %d input of link %d lane %d has a head packet with no routing claim",
					cycle, ip.sw, ip.link, v)
			}
		}
	}
}

// checkCommit is checkActiveCover's scan of a committed output. Its
// departures lie within one flight of the visit that committed them, and
// its wake sits on the wheel slot after the last one. The flits of the
// departures it has not settled are still the first of its input lane's
// head packet, not its tail, and each has arrived by its departure; the
// input has sent no stop. They are also the newest flits on the output's
// link, each stamped at its departure plus the flight.
func checkCommit(t *testing.T, s *Sim, cycle int64, op *outPort) {
	t.Helper()
	l := &s.links[op.link]
	flight := int64(s.p.LinkFlightCycles)
	deps := committedDepartures(op.commitAt, op.commitMask)
	end := deps[len(deps)-1]
	if l.credits != nil || l.stopped || deps[0] <= op.commitAt || end >= op.commitAt+flight || end < s.now-1 {
		t.Fatalf("cycle %d: link %d's output commits departures %v at cycle %d on a stopped or credit link, or outside (%d, %d) with the wake before cycle %d",
			cycle, op.link, deps, op.commitAt, op.commitAt, op.commitAt+flight, s.now)
	}
	if !s.wheel[(end+1)&s.wheelMask].wakes.has(op.link) {
		t.Fatalf("cycle %d: link %d's committed output is not on the wake slot of cycle %d", cycle, op.link, end+1)
	}
	ip := &s.inPorts[op.one[0].conn]
	if ip.lastSignalStop {
		t.Fatalf("cycle %d: link %d's output is committed but its input on link %d has sent a stop", cycle, op.link, ip.link)
	}
	q := ip.one[0].buf
	var pkt *packet
	j := 0
	for k := 0; k < q.runs.n && j < len(deps); k++ {
		r := q.runs.at(k)
		if pkt == nil {
			pkt = r.pkt
		}
		if r.pkt != pkt || r.stale {
			break
		}
		for m := r.mask; m != 0 && j < len(deps); m &= m - 1 {
			at := r.arrive + int64(bits.TrailingZeros64(m))
			if at > deps[j] || (r.tail && m&(m-1) == 0) {
				t.Fatalf("cycle %d: link %d's output commits a departure at cycle %d of a flit arriving at %d (tail %v)",
					cycle, op.link, deps[j], at, r.tail && m&(m-1) == 0)
			}
			j++
		}
	}
	if j < len(deps) {
		t.Fatalf("cycle %d: link %d's output commits %d departures, its input lane holds %d flits of its head packet",
			cycle, op.link, len(deps), j)
	}
	checkNewest(t, s, cycle, op.link, deps)
}

// checkCommitNIC is checkCommit for a committed NIC: it streams a source
// injection with no DMA pending, its departures follow one per cycle
// within one flight of the visit that committed them and stop before the
// tail, its wake sits on the wheel slot after the last one, and their
// flits are the newest on its up-link, stamped at departure plus flight.
func checkCommitNIC(t *testing.T, s *Sim, cycle int64, n *nic) {
	t.Helper()
	l := &s.links[n.upLink]
	flight := int64(s.p.LinkFlightCycles)
	deps := committedDepartures(n.commitAt, n.commitMask)
	end := deps[len(deps)-1]
	if !n.active || n.cur.reinj != nil || len(n.pending) > 0 || l.credits != nil || l.down || l.stopped ||
		end >= n.commitAt+flight || end < s.now-1 || int(end-deps[0])+1 != len(deps) ||
		n.cur.sent+len(deps) >= n.cur.toSend {
		t.Fatalf("cycle %d: host %d commits departures %v at cycle %d, %d of %d flits sent, not a source injection's next flits before its tail within one flight on a live stop & go up-link",
			cycle, n.host, deps, n.commitAt, n.cur.sent, n.cur.toSend)
	}
	if !s.wheel[(end+1)&s.wheelMask].wakes.has(n.upLink) {
		t.Fatalf("cycle %d: committed host %d is not on the wake slot of cycle %d", cycle, n.host, end+1)
	}
	checkNewest(t, s, cycle, n.upLink, deps)
}

// committedDepartures lists the departure cycles in mask of a commitment
// made at cycle at.
func committedDepartures(at int64, mask uint64) []int64 {
	var deps []int64
	for m := mask; m != 0; m &= m - 1 {
		deps = append(deps, at+int64(bits.TrailingZeros64(m)))
	}
	return deps
}

// checkNewest asserts that the newest flits on link lid are those of the
// committed departures deps, each stamped at its departure plus the flight.
func checkNewest(t *testing.T, s *Sim, cycle int64, lid int, deps []int64) {
	t.Helper()
	var stamps []int64
	q := &s.links[lid].lanes[0]
	for k := 0; k < q.runs.n; k++ {
		r := q.runs.at(k)
		for m := r.mask; m != 0; m &= m - 1 {
			stamps = append(stamps, r.arrive+int64(bits.TrailingZeros64(m)))
		}
	}
	if len(stamps) < len(deps) {
		t.Fatalf("cycle %d: link %d carries %d flits, fewer than the %d its sender committed", cycle, lid, len(stamps), len(deps))
	}
	newest := stamps[len(stamps)-len(deps):]
	for j, d := range deps {
		if newest[j] != d+int64(s.p.LinkFlightCycles) {
			t.Fatalf("cycle %d: link %d's newest flits arrive at %v, its sender commits departures %v", cycle, lid, newest, deps)
		}
	}
}

// undeparted counts the flits on link i that a committed switch output or
// NIC has pushed ahead of their departures at or after the current cycle.
func undeparted(s *Sim, i int) int {
	var at int64
	var mask uint64
	if oi := s.outPortOfLink[i]; oi >= 0 {
		at, mask = s.outPorts[oi].commitAt, s.outPorts[oi].commitMask
	} else if h := i - s.numChannels; h < s.numHosts {
		at, mask = s.nics[h].commitAt, s.nics[h].commitMask
	}
	n := 0
	for m := mask; m != 0; m &= m - 1 {
		if at+int64(bits.TrailingZeros64(m)) >= s.now {
			n++
		}
	}
	return n
}

// checkCable is checkActiveCover's scan of link i. An arrival acts when
// it reaches a NIC, is a signal, or brings a live flit to a switch input
// lane that is its packet's first there or could lift the lane's buffer
// over the stop threshold (the VC buffer depth, in VC mode) — counted as
// every live flit that has arrived by then, as if none left before. Every
// arrival that acts must sit on the wheel slot of its cycle. The flits of
// departures committed from the current cycle on (checkCommit) arrive up
// to a flight later than the rest.
func checkCable(t *testing.T, s *Sim, cycle int64, i int) {
	t.Helper()
	l := &s.links[i]
	flight := int64(s.p.LinkFlightCycles)
	onWheel := func(set func(*wheelSlot) *bitset, at int64, what string) {
		if !set(&s.wheel[at&s.wheelMask]).has(i) {
			t.Fatalf("cycle %d: link %d has %s arriving at cycle %d but is not on that wheel slot", cycle, i, what, at)
		}
	}
	for j := 0; j < l.signals.n; j++ {
		onWheel(signalSet, l.signals.at(j).arrive, "a signal")
	}
	var stamps []int64
	for v := range l.lanes {
		q := &l.lanes[v]
		flits, occ, bound := 0, 0, 0
		for k := 0; k < q.runs.n; k++ {
			r := q.runs.at(k)
			flits += bits.OnesCount64(r.mask)
			prev := (*flitRun)(nil)
			if k > 0 {
				prev = q.runs.at(k - 1)
			}
			first := !r.open && (prev == nil || prev.pkt != r.pkt || prev.tail)
			for f := int64(0); f < runWindow; f++ {
				if r.mask>>uint(f)&1 == 0 {
					continue
				}
				at := r.arrive + f
				if at <= s.seen {
					if !r.stale {
						occ++
						bound++
					}
					continue
				}
				stamps = append(stamps, at)
				switch {
				case l.recvPort < 0:
					onWheel(flitSet, at, "a flit for a NIC")
				case r.pkt.dead:
					// Drains into the void on arrival.
				case first && f == 0:
					onWheel(flitSet, at, "a packet's first flit")
				case bound+1 > s.actLimit:
					onWheel(flitSet, at, fmt.Sprintf("a flit that may find %d flits buffered", bound+1))
				}
				if !r.pkt.dead {
					bound++
				}
			}
		}
		if flits != q.n {
			t.Fatalf("cycle %d: link %d lane %d counts %d flits, its runs hold %d", cycle, i, v, q.n, flits)
		}
		if got := q.occ(s.seen); got != occ {
			t.Fatalf("cycle %d: link %d lane %d reads occupancy %d from its stamps, %d flits have arrived", cycle, i, v, got, occ)
		}
	}
	slices.Sort(stamps)
	ahead := len(stamps) - undeparted(s, i)
	for j, at := range stamps {
		if (j < ahead && at >= s.now+flight) || at < s.now || (j > 0 && at == stamps[j-1]) {
			t.Fatalf("cycle %d: link %d has flits in flight arriving at %v, not distinct cycles in [%d, %d) but for %d committed",
				cycle, i, stamps, s.now, s.now+flight, len(stamps)-ahead)
		}
	}
}

// signalSet and flitSet pick a wheel slot's two link sets.
func signalSet(w *wheelSlot) *bitset { return &w.signals }
func flitSet(w *wheelSlot) *bitset   { return &w.flits }

// bufferHead is runQueue.head without its clean-up: the run of the buffer's
// head packet, or nil.
func bufferHead(q *runQueue, seen int64) *flitRun {
	for k := 0; k < q.runs.n; k++ {
		if r := q.runs.at(k); !r.stale {
			if r.buffered(seen) {
				return r
			}
			return nil
		}
	}
	return nil
}

// TestActiveSetNeverStrandsWork steps simulators across load regimes, with
// and without fault plans, and under virtual-channel flow control,
// asserting the stranded-work invariant after every cycle. The fault cases
// tear connections down outside the tick functions (purge and kill paths);
// the VC case drives the lane-level routing and transfer units; the
// backpressure case keeps source queues full and links stopped, so NICs
// and switch outputs park and wake throughout.
func TestActiveSetNeverStrandsWork(t *testing.T) {
	torus := makeNet(t, 4, 4, 2)
	dragonfly, err := topology.NewDragonfly(4, 3, 1, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		net     *topology.Network
		sch     routes.Scheme
		load    float64
		faulted bool
		cycles  int64
	}{
		{"ud-low", torus, routes.UpDown, 0.003, false, 30_000},
		{"itbrr-high", torus, routes.ITBRR, 0.05, false, 30_000},
		{"ud-faulted", torus, routes.UpDown, 0.03, true, 60_000},
		{"itbsp-faulted", torus, routes.ITBSP, 0.03, true, 60_000},
		{"vc2-dragonfly", dragonfly, routes.VC, 0.05, false, 30_000},
		{"ud-backpressure", torus, routes.UpDown, 0.5, false, 15_000},
		{"ud-backpressure-faulted", torus, routes.UpDown, 0.5, true, 60_000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := tc.net
			var tab *routes.Table
			if tc.sch == routes.VC {
				tab = makeVCTable(t, net, 2)
			} else {
				tab = makeTable(t, net, tc.sch)
			}
			cfg := baseConfig(net, tab)
			cfg.Load = tc.load
			if tc.faulted {
				cfg.Faults = (&faults.Plan{}).
					FailLinkAt(busiestLink(tab, net), 5_000).
					FailSwitchAt(5, 20_000).
					RepairLinkAt(busiestLink(tab, net), 35_000).
					RepairSwitchAt(5, 45_000)
				cfg.Reconfigurer = faults.NewController(net, 0, routes.DefaultConfig(tc.sch))
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for c := int64(0); c < tc.cycles; c++ {
				s.step()
				checkActiveCover(t, s, c)
			}
			if s.deliveredTotal == 0 {
				t.Fatal("property run delivered nothing; the scan proved nothing")
			}
		})
	}
}

// multiAltPair finds a host pair whose switch pair keeps several route
// alternatives, so ITB-RR actually cycles.
func multiAltPair(t *testing.T, net *topology.Network, tab *routes.Table) (src, dst int) {
	t.Helper()
	for s := 0; s < net.NumHosts(); s++ {
		for d := 0; d < net.NumHosts(); d++ {
			if s == d {
				continue
			}
			if len(tab.Alternatives(net.SwitchOf(s), net.SwitchOf(d))) >= 2 {
				return s, d
			}
		}
	}
	t.Fatal("no host pair with multiple route alternatives")
	return 0, 0
}

// TestRRVisitSequencePinned pins the ITB-RR visit order a simulator sees:
// a fresh Sim starts at alternative 0 for every pair and cycles through the
// alternatives in table order, regardless of what the caller's table has
// been used for before.
func TestRRVisitSequencePinned(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	tab := makeTable(t, net, routes.ITBRR)
	src, dst := multiAltPair(t, net, tab)
	k := len(tab.Alternatives(net.SwitchOf(src), net.SwitchOf(dst)))

	// Dirty the caller's cursors first: the sim must not inherit them.
	for i := 0; i < 3; i++ {
		tab.Route(src, dst)
	}
	s, err := New(baseConfig(net, tab))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*k; i++ {
		r := s.table.Route(src, dst)
		if r.AltIndex != i%k {
			t.Fatalf("visit %d: got alternative %d, want %d", i, r.AltIndex, i%k)
		}
	}
}

// TestSimRRStateIsPrivate asserts the satellite fix: a run must not advance
// the round-robin cursors of the table it was handed, and two sequential
// runs off one shared table must be byte-identical.
func TestSimRRStateIsPrivate(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	tab := makeTable(t, net, routes.ITBRR)
	src, dst := multiAltPair(t, net, tab)

	cfg := baseConfig(net, tab)
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The caller's cursor is untouched: its next pick is alternative 0.
	if r := tab.Route(src, dst); r.AltIndex != 0 {
		t.Errorf("run advanced the caller's RR cursor: first pick is alternative %d", r.AltIndex)
	}
	second, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("two sequential runs off one shared table differ")
	}
}

// TestSharedTableConcurrentRuns races two simulations off the same *Table.
// Before the private-RR fix this interleaved cursor advances (a data race
// the -race build catches, and nondeterministic route selection even when
// it didn't crash); now both must reproduce the sequential result exactly.
func TestSharedTableConcurrentRuns(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	tab := makeTable(t, net, routes.ITBRR)
	cfg := baseConfig(net, tab)
	cfg.MeasureMessages = 150

	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Result, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Run(cfg)
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(want, results[i]) {
			t.Errorf("concurrent run %d diverges from the sequential result", i)
		}
	}
}

// TestLinkSeriesChannelAlignment is the regression test for the
// channel/link index split in sampleMetrics: on topologies whose link array
// layout differs most from the channel space (express torus with its skip
// channels, CPLANT's irregular wiring), the per-channel utilization series
// and scalars must line up channel-for-channel with Result.LinkBusy and the
// topology's ChannelEnds — no truncation, no host-link bleed-through.
func TestLinkSeriesChannelAlignment(t *testing.T) {
	express, err := topology.NewExpressTorus(4, 4, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	cplant, err := topology.NewCplant(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, net := range []*topology.Network{express, cplant} {
		t.Run(net.Name, func(t *testing.T) {
			tab := makeTable(t, net, routes.UpDown)
			cfg := baseConfig(net, tab)
			cfg.Load = 0.02
			cfg.MeasureMessages = 200
			cfg.CollectLinkUtil = true
			cfg.Metrics = &metrics.Config{WindowCycles: 2048}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			C := net.NumChannels()
			if len(res.LinkBusy) != C {
				t.Fatalf("LinkBusy has %d entries, want %d channels", len(res.LinkBusy), C)
			}
			if len(res.Metrics.Links) != C {
				t.Fatalf("Metrics.Links has %d entries, want %d channels", len(res.Metrics.Links), C)
			}
			busySeen := false
			for ch := 0; ch < C; ch++ {
				lm := res.Metrics.Links[ch]
				if lm.Channel != ch {
					t.Fatalf("Metrics.Links[%d].Channel = %d: series misaligned", ch, lm.Channel)
				}
				from, to := net.ChannelEnds(ch)
				if lm.From != from || lm.To != to {
					t.Fatalf("channel %d endpoints (%d,%d) reported as (%d,%d)", ch, from, to, lm.From, lm.To)
				}
				if lm.BusyFrac != res.LinkBusy[ch] {
					t.Errorf("channel %d: Metrics BusyFrac %g != Result.LinkBusy %g", ch, lm.BusyFrac, res.LinkBusy[ch])
				}
				if lm.BusyFrac > 0 {
					busySeen = true
				}
			}
			if !busySeen {
				t.Error("no channel recorded utilization; alignment check proved nothing")
			}
		})
	}
}

// TestTrailingWindowReconciles is the regression test for the dropped final
// partial metrics window: a drain that finishes between window boundaries
// must still account every delivery in the traffic series, so the series
// total reconciles with the scalar counter.
func TestTrailingWindowReconciles(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	tab := makeTable(t, net, routes.UpDown)
	cfg := baseConfig(net, tab)
	cfg.Load = 0 // Enqueue-driven
	cfg.Metrics = &metrics.Config{WindowCycles: 512}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const msgs = 48
	for i := 0; i < msgs; i++ {
		src := i % net.NumHosts()
		dst := (src + 7) % net.NumHosts()
		if _, err := s.Enqueue(src, dst, 512); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.RunUntilDrained()
	if err != nil {
		t.Fatal(err)
	}
	if res.DeliveredMessages != msgs {
		t.Fatalf("delivered %d of %d", res.DeliveredMessages, msgs)
	}
	tr := res.Metrics.Traffic
	if tr == nil {
		t.Fatal("no traffic series collected")
	}
	var sum int64
	for _, d := range tr.Delivered {
		sum += d
	}
	if sum != res.DeliveredMessages {
		t.Errorf("traffic series sums to %d deliveries, Result.DeliveredMessages = %d (final partial window dropped?)",
			sum, res.DeliveredMessages)
	}
	// The drain all but certainly stops off-boundary; prove the flush
	// actually exercised the partial-window path rather than landing on a
	// boundary by luck.
	if res.Cycles%512 == 0 {
		t.Logf("run ended exactly on a window boundary (cycle %d); flush path not exercised", res.Cycles)
	}
}
