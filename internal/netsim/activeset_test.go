package netsim

import (
	"math"
	"reflect"
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

// TestActiveSetMatchesDense is the tentpole's golden equivalence check: on
// the paper's 8x8 torus, for all three schemes, with and without a fault
// plan, the active-set loop must produce a Result byte-identical to the
// dense per-cycle scan — including metrics series, latency histograms, and
// drop accounting.
func TestActiveSetMatchesDense(t *testing.T) {
	net := makeNet(t, 8, 8, 2)
	for _, sch := range []routes.Scheme{routes.UpDown, routes.ITBSP, routes.ITBRR} {
		for _, faulted := range []bool{false, true} {
			name := sch.String()
			if faulted {
				name += "/faulted"
			}
			t.Run(name, func(t *testing.T) {
				dense := goldenConfig(t, net, sch, faulted)
				dense.DenseStep = true
				want, err := Run(dense)
				if err != nil {
					t.Fatal(err)
				}
				active := goldenConfig(t, net, sch, faulted)
				got, err := Run(active)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("active-set result diverges from dense scan:\ndense:  %+v\nactive: %+v", want, got)
				}
			})
		}
	}
}

// checkActiveCover is the brute-force stranded-work scan: after any step,
// every component the dense loop would visit to an observable effect must
// be reachable by the active-set loop — present in its set, or (for a
// NIC whose only pending work is message generation) parked on the
// generation timer heap.
func checkActiveCover(t *testing.T, s *Sim, cycle int64) {
	t.Helper()
	for i := range s.links {
		if !s.links[i].idle() && !s.linkSet.has(i) {
			t.Fatalf("cycle %d: link %d carries flits or signals but is not in the link set", cycle, i)
		}
	}
	for i := range s.switches {
		sw := &s.switches[i]
		if (sw.waiting > 0 || sw.setups > 0) && !s.routingSet.has(i) {
			t.Fatalf("cycle %d: switch %d has waiting=%d setups=%d but is not in the routing set",
				cycle, i, sw.waiting, sw.setups)
		}
		if sw.conns > 0 && !s.transferSet.has(i) {
			t.Fatalf("cycle %d: switch %d has %d connections but is not in the transfer set",
				cycle, i, sw.conns)
		}
	}
	for h := range s.nics {
		n := &s.nics[h]
		needNonGen := n.active || len(n.pending) > 0 ||
			((n.reinjH < len(n.reinjQ) || n.sendQH < len(n.sendQ)) &&
				!(s.fe != nil && s.fe.down[n.upLink]))
		if needNonGen && !s.nicSet.has(h) {
			t.Fatalf("cycle %d: host %d has NIC work but is not in the NIC set", cycle, h)
		}
		if !n.stopGen && !math.IsInf(s.genIntervalCycles, 1) && !s.nicSet.has(h) {
			if !n.genArmed {
				t.Fatalf("cycle %d: host %d is asleep with no generation timer armed", cycle, h)
			}
			due := int64(math.Ceil(n.nextGen))
			found := false
			for _, gt := range s.genTimers {
				if gt.host == h && gt.at <= due {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("cycle %d: host %d armed but no heap entry fires by cycle %d", cycle, h, due)
			}
		}
		// A buffered head packet must always hold a routing claim —
		// stranded regardless of scheduler if not.
		_ = n
	}
	for i := range s.inPorts {
		ip := &s.inPorts[i]
		if ip.buf.headSeg() != nil && ip.conn < 0 && ip.pendingOut < 0 {
			t.Fatalf("cycle %d: switch %d input of link %d has a head packet with no routing claim",
				cycle, ip.sw, ip.link)
		}
	}
}

// TestActiveSetNeverStrandsWork steps simulators across load regimes, with
// and without fault plans, asserting the stranded-work invariant after
// every cycle.
func TestActiveSetNeverStrandsWork(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	cases := []struct {
		name    string
		sch     routes.Scheme
		load    float64
		faulted bool
		cycles  int64
	}{
		{"ud-low", routes.UpDown, 0.003, false, 30_000},
		{"itbrr-high", routes.ITBRR, 0.05, false, 30_000},
		{"ud-faulted", routes.UpDown, 0.03, true, 60_000},
		{"itbsp-faulted", routes.ITBSP, 0.03, true, 60_000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tab := makeTable(t, net, tc.sch)
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
