package netsim

import (
	"errors"
	"math"
	"testing"

	"itbsim/internal/routes"
	"itbsim/internal/topology"
)

// uniformDest picks a uniformly random destination different from src.
func uniformDest(numHosts int) DestFn {
	return func(src int, rng *RNG) int {
		for {
			d := rng.Intn(numHosts)
			if d != src {
				return d
			}
		}
	}
}

func makeNet(t testing.TB, rows, cols, hosts int) *topology.Network {
	t.Helper()
	net, err := topology.NewTorus(rows, cols, hosts, 16)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func makeTable(t testing.TB, net *topology.Network, sch routes.Scheme) *routes.Table {
	t.Helper()
	tab, err := routes.Build(net, routes.DefaultConfig(sch))
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func baseConfig(net *topology.Network, tab *routes.Table) Config {
	return Config{
		Net:             net,
		Table:           tab,
		Dest:            uniformDest(net.NumHosts()),
		Load:            0.005,
		MessageBytes:    512,
		Seed:            1,
		WarmupMessages:  50,
		MeasureMessages: 300,
		MaxCycles:       20_000_000,
	}
}

// injectOne hand-places a single packet at a NIC and steps the simulator
// until it is delivered, returning the delivery latency in cycles.
func injectOne(t *testing.T, s *Sim, src, dst int) (*packet, int64) {
	t.Helper()
	s.measuring = true // so deliver() records it
	r := s.cfg.Table.Route(src, dst)
	p := &packet{
		id:       999,
		srcHost:  src,
		dstHost:  dst,
		route:    r,
		payload:  s.cfg.MessageBytes,
		genCycle: s.now,
		measured: true,
	}
	p.wireFlits = s.cfg.MessageBytes + headerFlits(r)
	s.outstanding++
	s.nics[src].sendQ = append(s.nics[src].sendQ, p)
	s.wakeNIC(src) // hand-placed work bypasses Enqueue's wake
	start := s.now
	for i := 0; i < 1_000_000; i++ {
		s.step()
		if s.measCount == 1 {
			return p, s.now - start
		}
	}
	t.Fatalf("packet %d -> %d not delivered within 1M cycles", src, dst)
	return nil, 0
}

// newQuiet builds a simulator with generation effectively disabled so tests
// can hand-inject packets.
func newQuiet(t *testing.T, net *topology.Network, tab *routes.Table) *Sim {
	t.Helper()
	cfg := baseConfig(net, tab)
	cfg.Load = 1e-9 // one message every ~10^13 cycles: never fires
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSingleMessageLatencyAnalytic(t *testing.T) {
	net := makeNet(t, 2, 2, 1)
	tab := makeTable(t, net, routes.UpDown)
	s := newQuiet(t, net, tab)

	src, dst := 0, 3
	r := tab.Route(src, dst)
	k := r.Hops // channels traversed
	p, lat := injectOne(t, s, src, dst)
	if p.itbVisits != 0 {
		t.Fatalf("UP/DOWN packet used %d ITBs", p.itbVisits)
	}
	// Model: first flit flies 8 cycles to the first switch; each of the
	// k+1 switches spends 24 routing cycles and its output link another 8
	// flight cycles; then the remaining payload+1-1 flits stream at one
	// per cycle.
	flight, route := s.p.LinkFlightCycles, s.p.RoutingCycles
	expect := int64(flight + (k+1)*(route+flight) + s.cfg.MessageBytes)
	if lat < expect-4 || lat > expect+4 {
		t.Errorf("single-message latency = %d cycles, analytic %d (k=%d)", lat, expect, k)
	}
}

func TestSingleMessageSameSwitch(t *testing.T) {
	net := makeNet(t, 2, 2, 2)
	tab := makeTable(t, net, routes.UpDown)
	s := newQuiet(t, net, tab)
	// Hosts 0 and 1 share switch 0: route crosses one switch, no channels.
	p, lat := injectOne(t, s, 0, 1)
	if p.route.Hops != 0 {
		t.Fatalf("same-switch route has %d hops", p.route.Hops)
	}
	flight, route := s.p.LinkFlightCycles, s.p.RoutingCycles
	expect := int64(flight + (route + flight) + s.cfg.MessageBytes)
	if lat < expect-4 || lat > expect+4 {
		t.Errorf("same-switch latency = %d cycles, analytic %d", lat, expect)
	}
}

func findITBPair(t *testing.T, net *topology.Network, tab *routes.Table) (src, dst int) {
	t.Helper()
	for s := 0; s < net.Switches; s++ {
		for d := 0; d < net.Switches; d++ {
			alts := tab.Alternatives(s, d)
			if len(alts) > 0 && alts[0].NumITBs() == 1 {
				return net.HostsAt(s)[0], net.HostsAt(d)[0]
			}
		}
	}
	t.Fatal("no single-ITB pair found")
	return 0, 0
}

func TestITBReinjectionTimingAndAccounting(t *testing.T) {
	net := makeNet(t, 8, 8, 1)
	tab := makeTable(t, net, routes.ITBSP)
	s := newQuiet(t, net, tab)
	src, dst := findITBPair(t, net, tab)
	p, lat := injectOne(t, s, src, dst)
	if p.itbVisits != 1 {
		t.Fatalf("packet used %d ITBs, want 1", p.itbVisits)
	}
	// The ITB adds, beyond the normal per-hop cost of its switches: the
	// flight to and from the NIC and the detection+DMA overhead. Compare
	// against the no-ITB analytic cost of the same hop count as a lower
	// bound, and that plus generous ITB overhead as an upper bound.
	k := p.route.Hops
	flight, route := s.p.LinkFlightCycles, s.p.RoutingCycles
	switchesTraversed := 0
	for _, seg := range p.route.Segs {
		switchesTraversed += len(seg.Channels) + 1
	}
	noITB := int64(flight + switchesTraversed*(route+flight) + s.cfg.MessageBytes)
	_ = k
	if lat <= noITB {
		t.Errorf("ITB latency %d cycles not above no-ITB bound %d", lat, noITB)
	}
	maxExtra := int64(2*flight + s.p.ITBDetectFlits + s.p.ITBDMAFlits + 64)
	if lat > noITB+maxExtra {
		t.Errorf("ITB latency %d cycles exceeds bound %d", lat, noITB+maxExtra)
	}
	// Pool fully released after delivery.
	for h := range s.nics {
		if s.nics[h].poolUsed != 0 {
			t.Errorf("host %d pool not released: %d bytes", h, s.nics[h].poolUsed)
		}
	}
	peak := 0
	for h := range s.nics {
		if s.nics[h].poolPeak > peak {
			peak = s.nics[h].poolPeak
		}
	}
	if peak < s.cfg.MessageBytes {
		t.Errorf("pool peak %d below one message", peak)
	}
}

func TestTwoSendersContendAndBothArrive(t *testing.T) {
	net := makeNet(t, 2, 2, 2)
	tab := makeTable(t, net, routes.UpDown)
	s := newQuiet(t, net, tab)
	s.measuring = true
	// Hosts 0,1 on switch 0; both send to host 6 on switch 3: they share
	// the final link and must serialise without loss.
	mk := func(src, dst int, id int64) {
		r := s.cfg.Table.Route(src, dst)
		p := &packet{id: id, srcHost: src, dstHost: dst, route: r, payload: 512, genCycle: s.now, measured: true}
		p.wireFlits = 512 + headerFlits(r)
		s.outstanding++
		s.nics[src].sendQ = append(s.nics[src].sendQ, p)
		s.wakeNIC(src)
	}
	mk(0, 6, 1)
	mk(1, 6, 2)
	for i := 0; i < 2_000_000 && s.measCount < 2; i++ {
		s.step()
	}
	if s.measCount != 2 {
		t.Fatalf("delivered %d of 2 contending messages", s.measCount)
	}
}

func TestStopGoNeverOverflows(t *testing.T) {
	// Heavy load on a tiny network exercises stop & go; the slack-buffer
	// overflow panic inside inPort.receive is the assertion.
	net := makeNet(t, 2, 2, 2)
	tab := makeTable(t, net, routes.UpDown)
	cfg := baseConfig(net, tab)
	cfg.Load = 0.5 // far beyond saturation
	cfg.WarmupMessages = 20
	cfg.MeasureMessages = 200
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted >= res.Injected {
		t.Errorf("expected saturation: accepted %.4f >= injected %.4f", res.Accepted, res.Injected)
	}
}

// TestDeadlockWatchdogFires hand-builds a cyclic route set on a 4-switch
// ring: each host sends two hops clockwise, so four long messages hold
// each other's links in a cycle. The watchdog must detect the deadlock,
// and both step loops must report it at the same cycle with the same
// stall dump: flits the active-set loop moves in committed runs count as
// progress at their departure cycles, not when they settle. Besides the
// default parameters, a 5-cycle flight and a low stop threshold end the
// run on such flits.
func TestDeadlockWatchdogFires(t *testing.T) {
	regimes := []struct {
		name  string
		apply func(*Params)
	}{
		{"default", func(*Params) {}},
		{"flight5", func(p *Params) {
			p.LinkFlightCycles = 5
			p.SlackBufferFlits = p.StopThreshold + 2*p.LinkFlightCycles
		}},
		{"stop20", func(p *Params) {
			p.StopThreshold, p.GoThreshold = 20, 4
			p.SlackBufferFlits = p.StopThreshold + 2*p.LinkFlightCycles
		}},
	}
	for _, rg := range regimes {
		t.Run(rg.name, func(t *testing.T) { ringDeadlock(t, rg.apply) })
	}
}

// ringDeadlock runs TestDeadlockWatchdogFires' ring under both step loops
// with the default parameters changed by apply.
func ringDeadlock(t *testing.T, apply func(*Params)) {
	t.Helper()
	net, err := topology.NewFromEdges("ring4", 4,
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	tab := &routes.Table{Net: net, Scheme: routes.UpDown}
	tab.Alts = make([][][]*routes.Route, 4)
	ch := func(a, b int) int { return net.Channel(net.LinkBetween(a, b), a) }
	for sw := 0; sw < 4; sw++ {
		tab.Alts[sw] = make([][]*routes.Route, 4)
		for d := 0; d < 4; d++ {
			var segs []routes.Seg
			switch {
			case d == sw:
				segs = []routes.Seg{{Channels: nil, ITBHost: -1}}
			default:
				var chans []int
				for s2 := sw; s2 != d; s2 = (s2 + 1) % 4 {
					chans = append(chans, ch(s2, (s2+1)%4))
				}
				segs = []routes.Seg{{Channels: chans, ITBHost: -1}}
			}
			tab.Alts[sw][d] = []*routes.Route{{SrcSwitch: sw, DstSwitch: d, Segs: segs, Hops: len(segs[0].Channels)}}
		}
	}
	var reports []string
	for _, loop := range stepLoops {
		cfg := Config{
			Net:   net,
			Table: tab,
			Dest: func(src int, rng *RNG) int {
				return (src + 2) % 4 // two hops clockwise, closing the cycle
			},
			Load:            1e-9, // no background generation
			MessageBytes:    512,
			Seed:            7,
			WarmupMessages:  0,
			MeasureMessages: 4,
			MaxCycles:       5_000_000,
		}
		cfg.Params = DefaultParams()
		cfg.Params.WatchdogCycles = 20_000
		apply(&cfg.Params)
		loop.apply(&cfg)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Inject all four packets at cycle 0: each immediately acquires its
		// first ring channel and then waits for the channel its clockwise
		// neighbour holds; the messages are far longer than the path
		// buffering, so no tail ever releases a channel.
		for src := 0; src < 4; src++ {
			dst := (src + 2) % 4
			r := tab.Alts[src][dst][0]
			p := &packet{id: int64(src), srcHost: src, dstHost: dst, route: r, payload: 512}
			p.wireFlits = 512 + headerFlits(r)
			s.outstanding++
			s.nics[src].sendQ = append(s.nics[src].sendQ, p)
			s.wakeNIC(src)
		}
		_, err = s.Run()
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("%s: expected ErrDeadlock, got %v", loop.name, err)
		}
		reports = append(reports, err.Error())
	}
	if reports[0] != reports[1] {
		t.Errorf("the step loops report the deadlock differently:\n%s: %s\n%s: %s",
			stepLoops[0].name, reports[0], stepLoops[1].name, reports[1])
	}
}

func TestConservationAllSchemes(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	for _, sch := range []routes.Scheme{routes.UpDown, routes.ITBSP, routes.ITBRR} {
		tab := makeTable(t, net, sch)
		cfg := baseConfig(net, tab)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("%v: %v", sch, err)
		}
		if res.DeliveredMeasured < int64(cfg.MeasureMessages) {
			t.Errorf("%v: delivered %d < %d", sch, res.DeliveredMeasured, cfg.MeasureMessages)
		}
		if s.generatedTotal-s.deliveredTotal != s.outstanding {
			t.Errorf("%v: conservation broken: gen %d del %d outstanding %d",
				sch, s.generatedTotal, s.deliveredTotal, s.outstanding)
		}
		if res.AvgLatencyNs <= 0 || res.Accepted <= 0 {
			t.Errorf("%v: degenerate result %+v", sch, res)
		}
		if sch == routes.UpDown && res.AvgITBsPerMessage != 0 {
			t.Errorf("UP/DOWN used ITBs: %f", res.AvgITBsPerMessage)
		}
		if sch == routes.ITBRR && res.AvgITBsPerMessage <= 0 {
			t.Errorf("ITB-RR used no ITBs on a torus")
		}
	}
}

func TestDeterminism(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	tab1 := makeTable(t, net, routes.ITBRR)
	tab2 := makeTable(t, net, routes.ITBRR)
	cfg := baseConfig(net, tab1)
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Table = tab2 // fresh RR counters
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.AvgLatencyNs != r2.AvgLatencyNs || r1.Accepted != r2.Accepted ||
		r1.Cycles != r2.Cycles || r1.AvgITBsPerMessage != r2.AvgITBsPerMessage {
		t.Errorf("same seed produced different results:\n%+v\n%+v", r1, r2)
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	cfg := baseConfig(net, makeTable(t, net, routes.UpDown))
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.AvgLatencyNs == r2.AvgLatencyNs && r1.Cycles == r2.Cycles {
		t.Error("different seeds produced identical runs")
	}
}

func TestLinkUtilizationCollected(t *testing.T) {
	net := makeNet(t, 4, 4, 2)
	cfg := baseConfig(net, makeTable(t, net, routes.UpDown))
	cfg.CollectLinkUtil = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LinkBusy) != net.NumChannels() {
		t.Fatalf("LinkBusy has %d entries, want %d", len(res.LinkBusy), net.NumChannels())
	}
	any := false
	for c, u := range res.LinkBusy {
		if u < 0 || u > 1 {
			t.Errorf("channel %d utilization %f out of [0,1]", c, u)
		}
		if u > 0 {
			any = true
		}
	}
	if !any {
		t.Error("no channel carried traffic")
	}
}

func TestConfigValidation(t *testing.T) {
	net := makeNet(t, 2, 2, 1)
	tab := makeTable(t, net, routes.UpDown)
	good := baseConfig(net, tab)

	cases := []func(*Config){
		func(c *Config) { c.Net = nil },
		func(c *Config) { c.Table = nil },
		func(c *Config) { c.Dest = nil },
		func(c *Config) { c.MessageBytes = 0 },
		func(c *Config) { c.MeasureMessages = 0 },
	}
	for i, mutate := range cases {
		c := good
		mutate(&c)
		if _, err := New(c); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}

	// NaN compares false with everything, so a plain Load < 0 check lets it
	// through, and +Inf makes the generation interval zero: every
	// non-finite or negative load is refused with a typed error.
	for _, load := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		c := good
		c.Load = load
		var ce *topology.ConfigError
		if _, err := New(c); !errors.As(err, &ce) || ce.Field != "Load" {
			t.Errorf("Load %g: got %v, want a *topology.ConfigError for Load", load, err)
		}
	}

	other := makeNet(t, 2, 2, 1)
	c := good
	c.Net = other // table belongs to a different network object
	if _, err := New(c); err == nil {
		t.Error("table/network mismatch accepted")
	}

	// The port masks are 32-bit words over a switch's local ports: a
	// switch with 42 inputs and outputs (2 torus channels plus 40 hosts)
	// is refused with a typed error, and one with exactly 32 runs.
	wide := makeWideNet(t, 40, 48)
	var ce *topology.ConfigError
	if _, err := New(baseConfig(wide, makeTable(t, wide, routes.UpDown))); !errors.As(err, &ce) || ce.Field != "Net" {
		t.Errorf("42-port switches: got %v, want a *topology.ConfigError for Net", err)
	}
	full := makeWideNet(t, 30, 32)
	c = baseConfig(full, makeTable(t, full, routes.UpDown))
	c.MeasureMessages = 100
	if res, err := Run(c); err != nil || res.Truncated {
		t.Errorf("32-port switches: got %v (truncated %v), want a completed run", err, res != nil && res.Truncated)
	}
}

// makeWideNet builds a 2x2 torus of switches with the given port count,
// each carrying hosts hosts.
func makeWideNet(t *testing.T, hosts, ports int) *topology.Network {
	t.Helper()
	net, err := topology.NewTorus(2, 2, hosts, ports)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestParamsValidation(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.CycleNs = 0 },
		func(p *Params) { p.LinkFlightCycles = 0 },
		func(p *Params) { p.GoThreshold = p.StopThreshold },
		func(p *Params) { p.StopThreshold = p.SlackBufferFlits },
		func(p *Params) { p.SourceQueueCap = 0 },
		func(p *Params) { p.WatchdogCycles = 10 },
		func(p *Params) { p.ITBDetectFlits = 0 },
		func(p *Params) { p.GoThreshold = 0 },
		func(p *Params) { p.GoThreshold = -4 },
	}
	for i, mutate := range bad {
		q := DefaultParams()
		mutate(&q)
		if err := q.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestHeaderFlits(t *testing.T) {
	r := &routes.Route{Segs: []routes.Seg{
		{Channels: []int{1, 2, 3}, ITBHost: 5},
		{Channels: []int{4}, ITBHost: -1},
	}}
	// Switches: (3+1) + (1+1) = 6 route bytes, 1 ITB mark, 1 type byte.
	if got := headerFlits(r); got != 8 {
		t.Errorf("headerFlits = %d, want 8", got)
	}
}

// TestRunQueue covers the cable lane on its own: flits join their
// packet's run across gaps in their arrivals and split where a run's window
// ends; the buffer's occupancy and head follow from the stamps; takes cross
// from one run of a packet to the next, and an emptied head stays open
// until its next flit arrives; a dead packet's flits are dropped once they
// arrive, its flits still in flight then skipped as stale.
func TestRunQueue(t *testing.T) {
	var q runQueue
	p1, p2, p3 := &packet{id: 1}, &packet{id: 2}, &packet{id: 3}
	gapEnd := int64(10 + runWindow)
	if !q.push(p1, false, 10) || q.push(p1, false, 11) || q.push(p1, false, 13) || q.push(p1, true, gapEnd) {
		t.Fatal("first-flit report wrong for one packet's flits")
	}
	if !q.push(p2, false, gapEnd+1) {
		t.Fatal("a new packet's flit not reported first")
	}
	if q.runs.n != 3 || q.n != 5 {
		t.Fatalf("%d runs holding %d flits, want 3 runs (a gap merged, a window split, a new packet) of 5", q.runs.n, q.n)
	}
	if r := q.runs.front(); r.pkt != p1 || r.arrive != 10 || r.mask != 0b1011 || r.tail {
		t.Fatalf("first run = %+v", *r)
	}
	if r := q.runs.at(1); r.pkt != p1 || r.arrive != gapEnd || r.count() != 1 || !r.tail {
		t.Fatalf("split run = %+v", *r)
	}

	// Arrival arithmetic: nothing before cycle 10, then the flits at 10,
	// 11 and 13, and the rest a window later.
	for _, c := range []struct {
		seen int64
		occ  int
	}{{9, 0}, {10, 1}, {12, 2}, {13, 3}, {gapEnd - 1, 3}, {gapEnd + 1, 5}} {
		if got := q.occ(c.seen); got != c.occ {
			t.Errorf("occupancy at cycle %d = %d, want %d", c.seen, got, c.occ)
		}
	}
	if q.head(9) != nil {
		t.Fatal("head before the first flit arrived")
	}
	if r := q.arrival(12); r != nil {
		t.Fatalf("a flit arrives in the gap: %+v", *r)
	}
	if r := q.arrival(13); r == nil || r.pkt != p1 || r.arrive != 10 {
		t.Fatal("arrival after the gap not found in the first run")
	}
	if r := q.arrival(gapEnd); r == nil || r != q.runs.at(1) {
		t.Fatal("arrival in the split run not found")
	}

	// Takes across runs: the drained first run hands the head to the next
	// run of the packet, open while it is still in flight.
	hs := q.head(13)
	if hs == nil || hs.pkt != p1 || !hs.ready(13) {
		t.Fatal("head at cycle 13 is not p1's first flit")
	}
	if q.take() || hs.arrive != 11 || q.take() || hs.arrive != 13 || q.take() {
		t.Fatal("takes do not walk the first run's flits in order")
	}
	hs = q.head(13)
	if hs == nil || hs.pkt != p1 || !hs.open || hs.ready(13) || q.occ(13) != 0 {
		t.Fatal("p1 does not hold the head open while its next flits are in flight")
	}
	if !q.take() {
		t.Fatal("the tail take not reported")
	}
	if hs = q.head(gapEnd + 1); hs == nil || hs.pkt != p2 || hs.open {
		t.Fatal("p2 is not the head once p1's tail left")
	}

	// An emptied head that is not the tail stays as an open placeholder,
	// and the packet's next flit lands in it.
	q.take()
	if hs = q.head(gapEnd + 1); hs == nil || hs.pkt != p2 || hs.mask != 0 || !hs.open {
		t.Fatal("emptied head not kept open")
	}
	if q.push(p2, true, 200) || q.runs.n != 1 || q.head(gapEnd+1).arrive != 200 {
		t.Fatal("next flit did not land in the placeholder")
	}
	if !q.take() || q.runs.n != 0 || q.n != 0 {
		t.Fatal("queue not empty after the tail left")
	}

	// Dead runs: arrived flits are dropped, flits in flight turn stale and
	// are skipped; the live packet behind becomes the head on arrival.
	q.push(p3, false, 300)
	q.push(p3, false, 301)
	q.push(p3, false, 302)
	q.push(p1, false, 303)
	p3.dead = true
	if !q.deadBuffered(301) {
		t.Fatal("dead arrived flits not seen")
	}
	q.purgeDead(301)
	if q.deadBuffered(301) || q.n != 2 || q.occ(303) != 1 {
		t.Fatalf("after the purge: %d flits, occupancy %d at cycle 303", q.n, q.occ(303))
	}
	if q.head(302) != nil {
		t.Fatal("a stale run is the head")
	}
	if hs = q.head(303); hs == nil || hs.pkt != p1 || q.runs.n != 1 || q.n != 1 {
		t.Fatal("stale run not dropped once arrived")
	}
}
