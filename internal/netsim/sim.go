package netsim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"itbsim/internal/faults"
	"itbsim/internal/metrics"
	"itbsim/internal/routes"
	"itbsim/internal/topology"
)

// DestFn chooses a destination host for a message generated at src. It must
// return a valid host different from src. Implementations live in
// internal/traffic. The generator is the per-NIC serializable RNG, so
// destination streams checkpoint and restore exactly.
type DestFn func(src int, rng *RNG) int

// Config describes one simulation run.
type Config struct {
	Net   *topology.Network
	Table *routes.Table
	Dest  DestFn

	// Load is the target injection rate in flits/ns/switch, the unit the
	// paper reports accepted traffic in.
	Load float64
	// MessageBytes is the payload size (the paper evaluates 32, 512, and
	// 1024 bytes and reports 512-byte results).
	MessageBytes int

	Seed int64

	// WarmupMessages deliveries are discarded before measurement starts;
	// the run then measures until MeasureMessages further messages
	// generated inside the window have been delivered, or MaxCycles.
	WarmupMessages  int
	MeasureMessages int
	MaxCycles       int64

	// CollectLinkUtil enables per-channel utilization accounting
	// (figures 8, 9, and 11).
	CollectLinkUtil bool

	// Metrics, when non-nil, enables the windowed observability collector:
	// per-link utilization time series, switch buffer occupancy, and
	// per-host ITB/backpressure telemetry, reported as Result.Metrics.
	// Collection is sampled once per Metrics.WindowCycles cycles, so the
	// added per-cycle cost is a single comparison. Latency histograms are
	// always collected regardless of this field.
	Metrics *metrics.Config

	// Tracer, when non-nil, receives packet life-cycle events (generate,
	// inject, per-switch route, ITB eject/reinject, deliver, and the fault
	// path's drop, retry and reconfigure). It is the simulator's one
	// observation hook; a message delivery is its EvDeliver event.
	Tracer Tracer

	// Faults schedules link/switch failures and repairs at simulation
	// cycles (see internal/faults and docs/FAULTS.md). A nil or empty
	// plan keeps the fabric permanently healthy and the fault machinery
	// entirely out of the cycle loop.
	Faults *faults.Plan

	// Reconfigurer recomputes routing tables after each topology change;
	// typically a *faults.Controller. With a plan but no reconfigurer the
	// simulator keeps the stale tables: packets crossing the fault are
	// dropped and retried until RetryLimit abandons them.
	Reconfigurer Reconfigurer

	// denseStep runs the legacy dense per-cycle scan (every link, switch,
	// and NIC visited every cycle) instead of the active-set scheduler.
	// Results are byte-identical either way; the field exists so this
	// package's equivalence tests and benchmarks can compare the two
	// loops, and is unexported because nothing else should pick a loop.
	denseStep bool

	// CheckpointEvery, when positive, snapshots the full simulator state
	// every that many cycles and hands the bytes to CheckpointSink. The
	// snapshot is taken at the cycle boundary (Snapshot's requirement), so
	// any multiple of one cycle is valid.
	CheckpointEvery int64

	// CheckpointSink receives each periodic snapshot. A non-nil error
	// aborts the run (RunContext returns it). Required when
	// CheckpointEvery > 0; see docs/CHECKPOINT.md for the format.
	CheckpointSink func(cycle int64, snapshot []byte) error

	Params Params
}

// Result carries the measurements of one run.
type Result struct {
	// AvgLatencyNs is the mean message latency: generation at the source
	// host to delivery of the last flit (the paper's latency metric
	// includes the source queue).
	AvgLatencyNs float64
	// AvgNetLatencyNs measures from first-flit injection instead.
	AvgNetLatencyNs float64
	// Accepted is the delivered payload traffic in flits/ns/switch.
	Accepted float64
	// Injected is the generated payload traffic in flits/ns/switch over
	// the measurement window; Accepted < Injected signals saturation.
	Injected float64

	DeliveredMeasured int64
	AvgITBsPerMessage float64
	MaxLatencyNs      float64

	// Latency percentiles over the measured messages.
	LatencyP50Ns, LatencyP95Ns, LatencyP99Ns float64

	// LinkBusy[c] is the fraction of measurement cycles each directed
	// switch-to-switch channel spent transmitting (nil unless
	// CollectLinkUtil).
	LinkBusy []float64
	// LinkStopped[c] is the fraction of measurement cycles each directed
	// switch-to-switch channel sat idle due to stop & go flow control
	// while a packet wanted to advance (§4.7.1 reports 20% of links idle
	// more than 10% of the time at the ITB-RR saturation point). Nil
	// unless CollectLinkUtil.
	LinkStopped []float64

	PoolPeakBytes int
	PoolOverflows int64

	// Metrics is the run's windowed telemetry (nil unless Config.Metrics
	// was set). Its Latency/NetLatency histograms back the percentile
	// fields above and expose the full latency distribution.
	Metrics *metrics.Metrics

	Cycles    int64
	Truncated bool // MaxCycles hit before MeasureMessages were delivered

	// Message-level conservation accounting, over the whole run including
	// warmup: GeneratedMessages = DeliveredMessages + LostMessages +
	// OutstandingAtEnd always holds, faults or not.
	GeneratedMessages int64
	DeliveredMessages int64
	// LostMessages were abandoned after RetryLimit failed attempts.
	LostMessages int64
	// OutstandingAtEnd counts messages still queued or in flight when the
	// run stopped.
	OutstandingAtEnd int64

	// Packet-level fault accounting (zero without a fault plan). Every
	// transmission attempt ends delivered, dropped, or still in flight:
	// GeneratedMessages + Retransmits = DeliveredMessages +
	// DroppedPackets + attempts alive at the end.
	DroppedPackets int64
	Drops          DropStats
	Retransmits    int64

	// Reconfigs records each completed routing-table swap; Stall carries
	// the stalled-packet diagnostic of a truncated run (nil otherwise).
	Reconfigs        []ReconfigStat
	ReconfigFailures int64
	ReconfigError    string
	Stall            *StallDump
}

// ErrDeadlock is returned when no flit moves for Params.WatchdogCycles
// while packets are outstanding. The routing schemes under test are
// deadlock-free; this firing indicates a model bug or a deliberately broken
// route set.
var ErrDeadlock = errors.New("netsim: no progress; network deadlocked")

// Sim is the assembled simulator. Build one with New, run with Run; a Sim
// is single-use and single-threaded (run independent Sims in parallel for
// sweeps).
type Sim struct {
	cfg Config
	p   Params
	net *topology.Network

	// table is the live routing table: a private Clone of cfg.Table until
	// a reconfiguration swaps in a degraded-mode table.
	table *routes.Table
	// fe is the fault engine, nil when cfg.Faults is empty.
	fe *faultEngine

	now      int64
	progress int64 // bumped on every flit movement and delivery
	// seen is the last cycle whose flit arrivals have been delivered: now
	// from stage 1 of a cycle on, now-1 before it and at a cycle boundary.
	// A flit stamped at or before seen is in its receiver's buffer.
	seen int64

	links    []link
	inPorts  []inPort
	outPorts []outPort
	switches []swtch
	nics     []nic

	outPortOfLink []int

	// Active sets, the arrival wheel and generation timers (see
	// activeset.go). dense selects the legacy full-scan loop instead; both
	// loops share the per-component code. actLimit is the lane occupancy
	// above which every flit arrival at a switch input acts (see
	// link.acts). sleepers holds the links whose sender sleeps, parked on
	// a stopped link or on credits, or on a commitment, and parkTimers the
	// generation wake-ups of the parked NICs not armed on genTimers. Only
	// the active-set loop puts a sender to sleep, and a checkpoint leaves
	// both out: every sender is woken before its walk.
	wheel       []wheelSlot
	wheelMask   int64
	actLimit    int
	routingSet  bitset
	transferSet bitset
	nicSet      bitset
	genTimers   timerHeap
	sleepers    bitset
	parkTimers  timerHeap
	dense       bool

	// lateMoves counts the flit moves settled after their departure cycle
	// (committed runs), which the progress counter includes; the watchdog
	// subtracts them and takes lastLateMove, the latest departure cycle
	// settled so, as progress at that cycle instead.
	lateMoves    int64
	lastLateMove int64

	// Work counters, deterministic for a seed; the point benchmarks report
	// their ratios, and Result leaves them out: switch-output transfer
	// visits and the flits switch outputs moved, NIC transfer visits and
	// the flits NICs moved, and arrival deliveries to NICs and the flits
	// NICs received.
	outVisits int64
	outFlits  int64
	nicVisits int64
	nicFlits  int64
	rxVisits  int64
	rxFlits   int64

	// deadRouteReqs lists the input ports whose head packet requested a
	// dead output this cycle; endCycle kills those packets.
	deadRouteReqs []int

	// Packet arena: chunked bump allocation keeps the per-message packet
	// structs on adjacent cache lines and off the general heap. Full chunks
	// are abandoned to the GC (no recycling: a stale pointer into a reused
	// slot would be a silent corruption).
	pktChunk []packet
	pktUsed  int

	numChannels int
	numHosts    int

	// vcMode selects virtual-channel flow control, with numVCs lanes on
	// every link and switch port (the table's NumVCs); under stop & go they
	// have one lane. Both flow-control models run the one switch pipeline,
	// which branches on vcMode only where they differ (see vc.go).
	vcMode bool
	numVCs int
	// laneFlits is the depth of a switch input lane's buffer: the slack
	// buffer, or VCBufFlits under VC flow control.
	laneFlits int

	genIntervalCycles float64

	// Run-state counters.
	generatedTotal int64
	deliveredTotal int64
	outstanding    int64

	measuring    bool
	measureStart int64

	measITBSum int64
	measCount  int64

	// Streaming latency histograms over the measured messages (always
	// on), plus exact integer cycle totals: finalize sets the exported
	// float sums from these rather than from per-sample accumulation.
	latHist      *metrics.Histogram
	netLatHist   *metrics.Histogram
	latCycles    int64
	netLatCycles int64

	// mx is the optional windowed observability collector (Config.Metrics).
	mx *metrics.Collector

	windowDeliveredFlits int64
	windowInjectedFlits  int64
}

// New assembles a simulator.
func New(cfg Config) (*Sim, error) {
	if cfg.Net == nil || cfg.Table == nil || cfg.Dest == nil {
		return nil, fmt.Errorf("netsim: Net, Table and Dest are required")
	}
	if cfg.Table.Net != cfg.Net {
		return nil, fmt.Errorf("netsim: routing table was built for a different network")
	}
	if !(cfg.Load >= 0) || math.IsInf(cfg.Load, 1) {
		return nil, &topology.ConfigError{Field: "Load", Value: cfg.Load, Reason: "must be a finite number >= 0"}
	}
	if cfg.MessageBytes < 1 {
		return nil, fmt.Errorf("netsim: MessageBytes must be >= 1")
	}
	if cfg.MeasureMessages < 1 {
		return nil, fmt.Errorf("netsim: MeasureMessages must be >= 1")
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = 50_000_000
	}
	if cfg.Params == (Params{}) {
		cfg.Params = DefaultParams()
	}
	if !cfg.Faults.Empty() {
		if err := cfg.Faults.Validate(cfg.Net); err != nil {
			return nil, err
		}
		cfg.Params.applyFaultDefaults()
	}
	// Virtual-channel gate: a VC-scheme table switches the flow-control
	// model on and gives every link one lane per virtual channel it
	// assigns, because its routes are only deadlock-free when every lane
	// the layering assigned actually exists.
	nv := cfg.Table.NumVCs
	if nv < 0 || nv > maxVCs {
		return nil, &topology.ConfigError{Field: "Table", Value: nv,
			Reason: fmt.Sprintf("the simulator supports 0 to %d virtual channels", maxVCs)}
	}
	if nv > 0 {
		if !cfg.Faults.Empty() {
			return nil, &topology.ConfigError{Field: "Faults", Value: "non-empty",
				Reason: "fault injection is not supported under virtual-channel flow control"}
		}
		if cfg.Params.VCBufFlits == 0 {
			cfg.Params.VCBufFlits = DefaultVCBufFlits
		}
		if cfg.Params.VCBufFlits < 2 {
			return nil, fmt.Errorf("netsim: VCBufFlits %d cannot hold a header flit and make progress", cfg.Params.VCBufFlits)
		}
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.CheckpointEvery < 0 {
		return nil, fmt.Errorf("netsim: CheckpointEvery must be >= 0, got %d", cfg.CheckpointEvery)
	}
	if cfg.CheckpointEvery > 0 {
		if cfg.CheckpointSink == nil {
			return nil, fmt.Errorf("netsim: CheckpointEvery > 0 requires a CheckpointSink")
		}
	}
	if err := checkPortCounts(cfg.Net); err != nil {
		return nil, err
	}
	// The simulator owns its route selection: a private Clone of the table
	// gives it its own round-robin cursors and selector, so two runs handed
	// the same *Table cannot perturb each other's route choices, and the
	// selector that picks a route is the one deliver reports back to.
	s := &Sim{cfg: cfg, p: cfg.Params, net: cfg.Net, table: cfg.Table.Clone(),
		dense: cfg.denseStep, vcMode: nv > 0, numVCs: nv}
	s.numChannels = cfg.Net.NumChannels()
	s.numHosts = cfg.Net.NumHosts()
	s.latHist = metrics.NewHistogram()
	s.netLatHist = metrics.NewHistogram()
	if cfg.Metrics != nil {
		s.mx = metrics.NewCollector(*cfg.Metrics, s.numChannels, cfg.Net.Switches, s.numHosts)
		if s.vcMode {
			s.mx.EnableVCs(s.numVCs)
		}
	}

	// Injection interval per host, in cycles: Load [flits/ns/switch] *
	// switches / hosts flits/ns per host; one message every
	// MessageBytes / that many ns. Load 0 disables internal generation
	// entirely (traffic is then injected through Enqueue).
	if cfg.Load > 0 {
		perHostFlitsPerNs := cfg.Load * float64(cfg.Net.Switches) / float64(s.numHosts)
		s.genIntervalCycles = float64(cfg.MessageBytes) / perHostFlitsPerNs / s.p.CycleNs
	} else {
		s.genIntervalCycles = math.Inf(1)
	}

	s.build()
	if !cfg.Faults.Empty() {
		s.fe = newFaultEngine(s, cfg.Faults, cfg.Reconfigurer)
	}
	return s, nil
}

// maxVCs bounds a routing table's virtual channels: the lanes of every
// link and switch port.
const maxVCs = 8

// maxSwitchPorts bounds the input and the output ports of one switch: the
// request masks and the port masks are 32-bit words over a switch's local
// port indices.
const maxSwitchPorts = 32

// checkPortCounts refuses a fabric with a switch whose inputs or outputs
// (switch-to-switch channels plus host links) outnumber the bits of a port
// mask.
func checkPortCounts(net *topology.Network) error {
	ins := make([]int, net.Switches)
	outs := make([]int, net.Switches)
	for c := 0; c < net.NumChannels(); c++ {
		from, to := net.ChannelEnds(c)
		outs[from]++
		ins[to]++
	}
	for h := 0; h < net.NumHosts(); h++ {
		ins[net.SwitchOf(h)]++
		outs[net.SwitchOf(h)]++
	}
	for sw := range ins {
		if ins[sw] > maxSwitchPorts || outs[sw] > maxSwitchPorts {
			return &topology.ConfigError{Field: "Net", Value: fmt.Sprintf("switch %d with %d inputs and %d outputs", sw, ins[sw], outs[sw]),
				Reason: fmt.Sprintf("the simulator supports at most %d input and %d output ports per switch", maxSwitchPorts, maxSwitchPorts)}
		}
	}
	return nil
}

// Link ID layout: [0, C) directed switch-to-switch channels (topology
// channel IDs), [C, C+H) host up-links, [C+H, C+2H) host down-links.
func (s *Sim) hostUpLink(h int) int   { return s.numChannels + h }
func (s *Sim) hostDownLink(h int) int { return s.numChannels + s.numHosts + h }

func (s *Sim) build() {
	net := s.net
	C, H := s.numChannels, s.numHosts
	total := C + 2*H
	s.links = make([]link, total)
	s.outPortOfLink = make([]int, total)
	for i := range s.outPortOfLink {
		s.outPortOfLink[i] = -1
	}
	s.switches = make([]swtch, net.Switches)
	for i := range s.switches {
		s.switches[i].id = i
	}

	addIn := func(sw, l int) {
		idx := len(s.inPorts)
		local := len(s.switches[sw].ins)
		s.inPorts = append(s.inPorts, inPort{sw: sw, link: l, localIdx: local})
		s.links[l].recvPort = idx
		s.links[l].recvNIC = -1
		s.switches[sw].ins = append(s.switches[sw].ins, idx)
	}
	addOut := func(sw, l int) {
		idx := len(s.outPorts)
		k := len(s.switches[sw].outs)
		s.outPorts = append(s.outPorts, outPort{tx: sender{link: l, sw: int32(sw), bit: 1 << uint(k)}})
		s.outPortOfLink[l] = idx
		s.switches[sw].outs = append(s.switches[sw].outs, idx)
	}

	for c := 0; c < C; c++ {
		s.links[c].id = c
		from, to := net.ChannelEnds(c)
		addOut(from, c)
		addIn(to, c)
	}
	s.nics = make([]nic, H)
	for h := 0; h < H; h++ {
		sw := net.SwitchOf(h)
		up, down := s.hostUpLink(h), s.hostDownLink(h)
		s.links[up].id = up
		s.links[down].id = down
		addIn(sw, up)    // NIC -> switch terminates at a switch input
		addOut(sw, down) // switch -> NIC originates at a switch output
		s.links[down].recvPort = -1
		s.links[down].recvNIC = h
		n := &s.nics[h]
		n.host = h
		n.tx = sender{link: up, sw: -1}
		n.rng = NewRNG(s.cfg.Seed*1_000_003 + int64(h)*7919 + 1)
		n.nextGen = n.rng.Float64() * s.genIntervalCycles
	}

	// Give every cable its lanes (one per virtual channel, one under
	// stop & go) and its signal ring, carved out of two shared slabs. A lane
	// starts with room for laneRuns runs; a lane that holds more (short
	// packets) grows its own ring. Stop & go sends at most one control flit
	// per threshold crossing, but credit returns can come more than one per
	// cycle on a link (a transfer plus a header strip on different lanes of
	// one input), so VC mode doubles the signal ring. A return that has
	// arrived waits on the ring until the sender reads its count
	// (link.absorb), so the ring of a link whose sender idles can outgrow
	// its share once (about 600 of the 726 links of the 11x11 torus, to 32
	// entries).
	lanes := 1
	sgCap := ringSize(s.p.LinkFlightCycles)
	if s.vcMode {
		lanes = s.numVCs
		sgCap = ringSize(2 * s.p.LinkFlightCycles)
	}
	qSlab := make([]runQueue, total*lanes)
	sgSlab := make([]signalInFlight, total*sgCap)
	for i := range s.links {
		l := &s.links[i]
		l.lanes = qSlab[i*lanes : (i+1)*lanes]
		for v := range l.lanes {
			l.lanes[v].runs.buf = l.lanes[v].store[:]
		}
		l.signals.buf = sgSlab[i*sgCap : (i+1)*sgCap]
	}
	// A NIC keeps one reception record per lane of its down-link.
	rxSlab := make([]rxLane, H*lanes)
	for h := range s.nics {
		s.nics[h].rx = rxSlab[h*lanes : (h+1)*lanes]
	}

	// Give every switch port a lane per cable lane: an input its lane's
	// buffer and connection state, an output its lane's request mask and
	// connection. Under VC flow control a port's own lane stays unused, with
	// no buffer and no connection.
	for i := range s.inPorts {
		ip := &s.inPorts[i]
		ip.one[0] = inLane{conn: -1, pendingOut: -1}
		if s.vcMode {
			ip.vcs = make([]inLane, lanes)
		}
		for v := range ip.lanes() {
			ip.lanes()[v] = inLane{buf: &s.links[ip.link].lanes[v], conn: -1, pendingOut: -1}
		}
	}
	for i := range s.outPorts {
		op := &s.outPorts[i]
		if s.vcMode {
			op.vcs = make([]outLane, lanes)
		}
		op.one[0].conn = -1
		for v := range op.vcs {
			op.vcs[v].conn = -1
		}
	}

	// Virtual-channel state: a full complement of credits on every link
	// (host links included — the NIC spends and returns them like any
	// switch port does).
	if s.vcMode {
		V := s.numVCs
		for i := range s.links {
			cr := make([]int16, V)
			for v := range cr {
				cr[v] = int16(s.p.VCBufFlits)
			}
			s.links[i].credits = cr
		}
	}

	// Active sets start with every NIC awake (each either generates on its
	// first due cycle or arms itself on the generation heap after one
	// no-op tick); links and switches wake on their first work. The arrival
	// wheel has a slot for every cycle of two flights, so a committed
	// flit, which arrives up to 2*LinkFlightCycles-1 cycles ahead, never
	// lands in the slot being walked.
	s.seen = -1
	s.lastLateMove = -1
	s.wheel = make([]wheelSlot, ringSize(2*s.p.LinkFlightCycles))
	for i := range s.wheel {
		s.wheel[i] = wheelSlot{signals: newBitset(total), flits: newBitset(total), wakes: newBitset(total),
			live: newBitset((total + 63) / 64)}
	}
	s.wheelMask = int64(len(s.wheel) - 1)
	s.actLimit, s.laneFlits = s.p.StopThreshold, s.p.SlackBufferFlits
	if s.vcMode {
		s.actLimit, s.laneFlits = s.p.VCBufFlits, s.p.VCBufFlits
	}
	s.routingSet = newBitset(net.Switches)
	s.transferSet = newBitset(net.Switches)
	s.nicSet = newBitset(H)
	s.nicSet.fill(H)
	s.sleepers = newBitset(total)
}

// pktID mints the packet/message ID for host h's next message: IDs are
// per-host arithmetic progressions (seq*numHosts + h), disjoint across
// hosts and independent of how generation interleaves across hosts.
func (s *Sim) pktID(n *nic) int64 {
	id := n.genSeq*int64(s.numHosts) + int64(n.host)
	n.genSeq++
	return id
}

const pktChunkSize = 256

// newPacket bump-allocates one packet from the arena.
//
//sim:hotpath
func (s *Sim) newPacket() *packet {
	if s.pktUsed == len(s.pktChunk) {
		s.pktChunk = make([]packet, pktChunkSize)
		s.pktUsed = 0
	}
	p := &s.pktChunk[s.pktUsed]
	s.pktUsed++
	return p
}

// generate creates one message at the given NIC and queues it for
// injection.
//
//sim:hotpath
func (s *Sim) generate(n *nic) {
	dst := s.cfg.Dest(n.host, n.rng)
	if dst < 0 || dst >= s.numHosts || dst == n.host {
		invalidDest(dst, n.host)
	}
	if s.measuring {
		s.windowInjectedFlits += int64(s.cfg.MessageBytes)
	}
	s.send(n, dst, s.cfg.MessageBytes, s.measuring)
}

// invalidDest fails generate's check of the destination Dest returned,
// kept out of line so generate holds no allocation site.
//
//go:noinline
func invalidDest(dst, src int) {
	panic(fmt.Sprintf("netsim: Dest returned invalid destination %d for source %d", dst, src))
}

// send creates one message at NIC n and queues its first transmission
// attempt, returning the message ID. With a fault engine the message gets
// a msgState that survives across attempts, and dispatch looks the route
// up (which may fail on a degraded table) and arms the delivery timeout;
// otherwise the attempt is one arena packet routed here.
//
//sim:hotpath
func (s *Sim) send(n *nic, dst, payload int, measured bool) int64 {
	id := s.pktID(n)
	s.generatedTotal++
	s.outstanding++
	if s.cfg.Tracer != nil {
		s.trace(Event{Kind: EvGenerate, Packet: id, Host: n.host})
	}
	if s.fe != nil {
		s.dispatch(&msgState{src: n.host, dst: dst, payload: payload, genCycle: s.now, measured: measured, seq: id})
		return id
	}
	r := s.table.Route(n.host, dst)
	p := s.newPacket()
	*p = packet{
		id:        id,
		srcHost:   n.host,
		dstHost:   dst,
		route:     r,
		payload:   payload,
		wireFlits: payload + headerFlits(r),
		genCycle:  s.now,
		measured:  measured,
		vc:        uint8(r.VC),
	}
	n.sendQ = append(n.sendQ, p)
	return id
}

// deliver records the arrival of a complete message at its destination.
//
//sim:hotpath
func (s *Sim) deliver(p *packet) {
	s.deliveredTotal++
	s.outstanding--
	s.progress++
	if p.msg != nil {
		p.msg.done = true // the pending retry timer sees this and expires
	}
	if s.cfg.Tracer != nil {
		s.trace(Event{Kind: EvDeliver, Packet: p.id, Host: p.dstHost})
	}
	if s.measuring {
		s.windowDeliveredFlits += int64(p.payload)
	}
	if !p.measured {
		return
	}
	latC := s.now - p.genCycle
	netC := s.now - p.injectCycle
	lat := float64(latC) * s.p.CycleNs
	s.latHist.Record(lat)
	s.netLatHist.Record(float64(netC) * s.p.CycleNs)
	s.latCycles += latC
	s.netLatCycles += netC
	s.measITBSum += int64(p.itbVisits)
	s.measCount++
	s.table.Observe(p.srcHost, p.route, lat)
}

// step advances the simulation by one cycle: the fault engine's wake-up,
// the four phases under the dense or the active-set loop, then endCycle.
// Both loops share the per-component code; TestActiveSetMatchesDense and
// TestResultGolden prove them byte-identical.
func (s *Sim) step() {
	// 0. Fault engine: one comparison per cycle while asleep; plan
	// events, retry timers, and reconfiguration phases fire on wake-ups.
	if s.fe != nil && s.now >= s.fe.nextWake {
		s.fe.wake(s)
	}
	if s.dense {
		s.stepDense()
	} else {
		s.stepActive()
	}
	s.endCycle()
}

// stepDense is the legacy loop: every component visited every cycle. Kept
// (behind Config.denseStep) as the executable specification the active-set
// scheduler is tested against.
func (s *Sim) stepDense() {
	// 1. Links deliver arrived control signals, then arrived flits; the
	// active-set loop calls the two halves as the wheel slot names them.
	// The arrival wheel's slot is emptied unread; nothing commits, so it
	// holds no wakes.
	s.seen = s.now
	slot := &s.wheel[s.now&s.wheelMask]
	clear(slot.signals.words)
	clear(slot.flits.words)
	clear(slot.live.words)
	for i := range s.links {
		l := &s.links[i]
		if !l.idle(s) {
			l.deliverSignals(s)
			l.deliverFlits(s)
		}
	}
	// 2. Switch routing control units.
	for i := range s.switches {
		s.switches[i].tickRouting(s)
	}
	// 3. NIC bookkeeping: DMA timers, generation, next injection.
	for i := range s.nics {
		s.nics[i].tick(s)
	}
	// 4. Transfers: established connections and NIC injections push one
	// flit each onto their links.
	for i := range s.switches {
		s.switches[i].tickTransfer(s)
	}
	for i := range s.nics {
		s.nics[i].tickTransfer(s)
	}
}

// endCycle is the tail every step shares: kill the head packets the
// phases found requesting a dead output, run the post-kill purge, advance
// the cycle, and sample windowed metrics.
func (s *Sim) endCycle() {
	// Kills and purges rewrite the state parked components wait on, so
	// settle them first, counting this cycle's skipped visits too.
	if len(s.deadRouteReqs) > 0 || (s.fe != nil && s.fe.needPurge) {
		s.settleParked(s.now)
	}
	// The kills commute (distinct ports hold distinct packets); any cascade
	// is handled by the purgeDeadState sweep that fe.needPurge triggers.
	for _, ipIdx := range s.deadRouteReqs {
		s.inPorts[ipIdx].killDeadHeads(s)
	}
	s.deadRouteReqs = s.deadRouteReqs[:0]
	// A packet killed mid-cycle (its route crossed a link that failed) may
	// still have its body stretched across upstream switches and its source
	// NIC; sweep that state now so their connections tear down instead of
	// waiting forever for a tail flit the dead-packet guards discard.
	if s.fe != nil && s.fe.needPurge {
		s.fe.needPurge = false
		s.purgeDeadState()
	}
	s.now++
	// Windowed metrics sampling: one comparison per cycle, a full network
	// scan only at window boundaries.
	if s.mx != nil && s.measuring && s.now >= s.mx.NextSample() {
		s.sampleMetrics()
	}
}

// sampleMetrics snapshots the cumulative counters at a window boundary.
//
// The link loop is bounded by numChannels, not len(s.links), on purpose:
// link IDs [0, numChannels) are the directed switch-to-switch channels
// (topology channel IDs), and the collector, Result.LinkBusy, and the
// exported LinkMetrics.Channel/From/To all index that same space. Host
// up/down-links occupy [numChannels, numChannels+2*numHosts) and are
// deliberately excluded — their utilization is the per-host injection and
// delivery telemetry. Mixing the two index spaces (sizing by len(s.links),
// or feeding a host link's counter into a channel slot) would silently
// misalign the series on any topology, and worst on ones with extra
// channels per switch (express tori) or irregular wiring (CPLANT);
// TestLinkSeriesChannelAlignment pins the alignment there.
func (s *Sim) sampleMetrics() {
	s.settleCommits(s.now - 1)
	for c := 0; c < s.numChannels; c++ {
		s.mx.SampleLink(c, s.links[c].busy)
	}
	for i := range s.switches {
		occ := 0
		for _, ip := range s.switches[i].ins {
			for v := range s.links[s.inPorts[ip].link].lanes {
				occ += s.links[s.inPorts[ip].link].lanes[v].occ(s.seen)
			}
		}
		s.mx.SampleSwitchOcc(i, occ)
	}
	for h := range s.nics {
		s.mx.SampleHostPool(h, s.nics[h].poolUsed)
	}
	if s.vcMode {
		for v := 0; v < s.numVCs; v++ {
			occ := 0
			for i := range s.inPorts {
				occ += s.inPorts[i].lanes()[v].buf.occ(s.seen)
			}
			s.mx.SampleVCOcc(v, occ)
		}
	}
	var dropped, retrans int64
	if s.fe != nil {
		dropped, retrans = s.fe.droppedPackets, s.fe.retransmits
	}
	s.mx.SampleTraffic(s.deliveredTotal, dropped, retrans)
	s.mx.CloseWindow(s.now)
}

// Now returns the current simulation cycle.
func (s *Sim) Now() int64 { return s.now }

// Enqueue hand-places one message at a source NIC, bypassing the internal
// generation process. It is the injection path for host-level layers built
// on top of the simulator (see internal/gm) and returns the packet ID,
// which re-appears in the message's trace events, EvDeliver included. Under
// a fault plan the message is retried like a generated one. Call before or
// between Run/RunUntilDrained steps of a simulator whose Load is 0.
func (s *Sim) Enqueue(src, dst, payloadBytes int) (int64, error) {
	if src < 0 || src >= s.numHosts || dst < 0 || dst >= s.numHosts {
		return 0, fmt.Errorf("netsim: host out of range: %d -> %d", src, dst)
	}
	if src == dst {
		return 0, fmt.Errorf("netsim: cannot send from host %d to itself", src)
	}
	if payloadBytes < 1 {
		return 0, fmt.Errorf("netsim: payload must be >= 1 byte")
	}
	id := s.send(&s.nics[src], dst, payloadBytes, true)
	s.wakeNIC(src)
	return id, nil
}

// RunUntilDrained steps the simulation until every outstanding packet has
// been delivered (or MaxCycles / the deadlock watchdog fires), measuring
// from the first cycle it steps. Use with Enqueue-driven traffic.
func (s *Sim) RunUntilDrained() (*Result, error) { return s.run(context.Background(), true) }

// Run executes the configured experiment and reports the measurements.
func (s *Sim) Run() (*Result, error) { return s.RunContext(context.Background()) }

// cancelCheckCycles is how often RunContext polls its context: every 8192
// cycles ≈ 20 µs of simulated time, frequent enough that paper-scale
// sweeps cancel promptly and cheap enough to vanish in the cycle loop.
const cancelCheckCycles = 8192

// RunContext is Run with cooperative cancellation: the main loop checks
// ctx every cancelCheckCycles cycles and returns ctx.Err() mid-run when it
// fires. Cancellation does not perturb results — a run that completes
// yields byte-identical measurements whether or not a context is attached.
func (s *Sim) RunContext(ctx context.Context) (*Result, error) { return s.run(ctx, false) }

// run is the one cycle loop behind RunContext and RunUntilDrained: it
// opens the measurement window, polls ctx, watches for deadlock, steps, and
// hands periodic checkpoints to the sink. A run stops at MaxCycles, and
// otherwise once MeasureMessages measured messages are delivered, or, when
// drain is set, once nothing is outstanding; a drain measures from its
// first cycle.
func (s *Sim) run(ctx context.Context, drain bool) (*Result, error) {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done() // nil for context.Background(): zero overhead
	}
	lastProgress := int64(-1)
	lastProgressAt := int64(0)
	truncated := false

	for {
		if !s.measuring && (drain || s.deliveredTotal >= int64(s.cfg.WarmupMessages)) {
			// Departures committed before the window opens are not
			// measured.
			s.settleCommits(s.now - 1)
			s.measuring = true
			s.measureStart = s.now
			if s.mx != nil {
				s.mx.Start(s.now)
				var dropped, retrans int64
				if s.fe != nil {
					dropped, retrans = s.fe.droppedPackets, s.fe.retransmits
				}
				s.mx.PrimeTraffic(s.deliveredTotal, dropped, retrans)
			}
		}
		stop := s.measuring && s.measCount >= int64(s.cfg.MeasureMessages)
		if drain {
			stop = s.outstanding == 0
		}
		if stop {
			break
		}
		if s.now >= s.cfg.MaxCycles {
			truncated = true
			break
		}
		if done != nil && s.now%cancelCheckCycles == 0 {
			select {
			case <-done:
				return nil, fmt.Errorf("netsim: run cancelled at cycle %d: %w", s.now, ctx.Err())
			default:
			}
		}
		if p := s.progress - s.lateMoves; p != lastProgress {
			lastProgress = p
			lastProgressAt = s.now
		} else if s.outstanding > 0 && s.now-lastProgressAt > s.p.WatchdogCycles {
			// A committed flit is progress at its departure cycle.
			s.settleCommits(s.now - 1)
			lastProgressAt = max(lastProgressAt, s.lastLateMove+1)
			if s.now-lastProgressAt > s.p.WatchdogCycles {
				return nil, s.deadlockError()
			}
		}
		s.step()
		if s.cfg.CheckpointEvery > 0 && s.now%s.cfg.CheckpointEvery == 0 {
			snap, err := s.Snapshot()
			if err != nil {
				return nil, fmt.Errorf("netsim: periodic checkpoint at cycle %d: %w", s.now, err)
			}
			if err := s.cfg.CheckpointSink(s.now, snap); err != nil {
				return nil, fmt.Errorf("netsim: checkpoint sink at cycle %d: %w", s.now, err)
			}
		}
	}
	return s.finalize(truncated), nil
}

func (s *Sim) finalize(truncated bool) *Result {
	// Parked components owe their skipped cycles to the stall counters.
	s.settleParked(s.now - 1)
	// Export copies of the latency histograms (callers like internal/gm
	// interleave RunUntilDrained and finalize repeatedly), with the float
	// sums set from the exact integer cycle totals.
	lat, netLat := s.latHist.Clone(), s.netLatHist.Clone()
	lat.SetSum(float64(s.latCycles) * s.p.CycleNs)
	netLat.SetSum(float64(s.netLatCycles) * s.p.CycleNs)

	// Flush the final partial metrics window: a run that stops between
	// window boundaries (RunUntilDrained draining, the measurement quota
	// filling mid-window) would otherwise drop every delivery since the
	// last boundary from the traffic series, so traffic_window totals
	// could not reconcile with the scalar counters. The trailing window
	// spans fewer cycles than WindowCycles; utilization fractions for it
	// are computed against the full width and so can only understate.
	if s.mx != nil && s.measuring && s.now > s.mx.LastSample() {
		s.sampleMetrics()
	}
	res := &Result{
		DeliveredMeasured: s.measCount,
		Cycles:            s.now,
		Truncated:         truncated,
		GeneratedMessages: s.generatedTotal,
		DeliveredMessages: s.deliveredTotal,
		OutstandingAtEnd:  s.outstanding,
	}
	if s.fe != nil {
		res.DroppedPackets = s.fe.droppedPackets
		res.Drops = s.fe.drops
		res.Retransmits = s.fe.retransmits
		res.LostMessages = s.fe.lost
		res.Reconfigs = s.fe.reconfigs
		res.ReconfigFailures = s.fe.reconfigFails
		res.ReconfigError = s.fe.reconfigErr
	}
	if truncated && s.outstanding > 0 {
		res.Stall = s.stallDump(maxStalledReported)
	}
	if s.measCount > 0 {
		res.AvgLatencyNs = lat.Mean()
		res.AvgNetLatencyNs = netLat.Mean()
		res.AvgITBsPerMessage = float64(s.measITBSum) / float64(s.measCount)
		res.MaxLatencyNs = lat.Max()
		res.LatencyP50Ns = lat.Quantile(0.50)
		res.LatencyP95Ns = lat.Quantile(0.95)
		res.LatencyP99Ns = lat.Quantile(0.99)
	}
	windowCycles := s.now - s.measureStart
	if s.measuring && windowCycles > 0 {
		ns := float64(windowCycles) * s.p.CycleNs
		res.Accepted = float64(s.windowDeliveredFlits) / ns / float64(s.net.Switches)
		res.Injected = float64(s.windowInjectedFlits) / ns / float64(s.net.Switches)
		if s.cfg.CollectLinkUtil {
			res.LinkBusy = make([]float64, s.numChannels)
			res.LinkStopped = make([]float64, s.numChannels)
			for c := 0; c < s.numChannels; c++ {
				res.LinkBusy[c] = float64(s.links[c].busy) / float64(windowCycles)
				res.LinkStopped[c] = float64(s.links[c].idleStopped) / float64(windowCycles)
			}
		}
	}
	for i := range s.nics {
		if s.nics[i].poolPeak > res.PoolPeakBytes {
			res.PoolPeakBytes = s.nics[i].poolPeak
		}
		res.PoolOverflows += s.nics[i].overflows
	}
	if s.mx != nil && s.measuring {
		m := s.mx.Finalize(windowCycles, s.p.CycleNs,
			s.net.ChannelEnds,
			func(c int) (int64, int64) { return s.links[c].busy, s.links[c].idleStopped })
		m.Latency = lat
		m.NetLatency = netLat
		res.Metrics = m
	}
	return res
}

// Run is a convenience wrapper: New followed by Run.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is a convenience wrapper: New followed by RunContext.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.RunContext(ctx)
}
