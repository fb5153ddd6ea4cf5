package netsim

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"itbsim/internal/faults"
	"itbsim/internal/routes"
	"itbsim/internal/topology"
)

// This file is the snapshot/restore codec: a mid-run Sim serializes into a
// self-describing binary checkpoint and restores into a fresh Sim that
// continues byte-identically (docs/CHECKPOINT.md). The format is
// little-endian, length-prefixed, and versioned; the header carries a hash
// of every result-relevant configuration field so a checkpoint cannot be
// resumed under a different experiment.
//
// Snapshots are taken at cycle boundaries only (between step calls), where
// the end-of-cycle dead-route list is empty. Derived state is not
// serialized but recomputed on restore: fault-engine down flags and fault
// set replay from the plan position, swapped routing tables from the
// (deterministic, memoized) Reconfigurer, active sets from each component's
// own idle predicate, and the fault engine's next wake-up from its timer
// sources. Re-deriving the active sets rather than copying bitsets is what
// lets a checkpoint written under one step loop resume under the other.

const (
	ckptMagic   = "ITBCKPT\x00"
	ckptVersion = 1
)

// cw is a little-endian checkpoint writer.
type cw struct {
	buf []byte
}

func (w *cw) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *cw) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *cw) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *cw) i64(v int64)  { w.u64(uint64(v)) }
func (w *cw) i(v int)      { w.i64(int64(v)) }
func (w *cw) f64(v float64) {
	w.u64(math.Float64bits(v))
}

func (w *cw) b(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *cw) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

func (w *cw) str(s string) { w.bytes([]byte(s)) }

// cr is the sticky-error reader matching cw: after the first malformed or
// short read, every further call returns zero values and err stays set.
type cr struct {
	buf []byte
	off int
	err error
}

func (r *cr) fail(n int) bool {
	if r.err != nil {
		return true
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("netsim: truncated checkpoint at offset %d (need %d of %d bytes)", r.off, n, len(r.buf))
		return true
	}
	return false
}

func (r *cr) u8() uint8 {
	if r.fail(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *cr) u32() uint32 {
	if r.fail(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *cr) u64() uint64 {
	if r.fail(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *cr) i64() int64   { return int64(r.u64()) }
func (r *cr) i() int       { return int(r.i64()) }
func (r *cr) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *cr) b() bool      { return r.u8() != 0 }

func (r *cr) bytes() []byte {
	n := int(r.u32())
	if r.fail(n) {
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

func (r *cr) str() string { return string(r.bytes()) }

// count reads a slice length (written by cw.i) and bounds it against the
// remaining input so a corrupt prefix cannot drive a huge allocation.
func (r *cr) count() int {
	n := r.i64()
	if r.err == nil && (n < 0 || n > int64(len(r.buf)-r.off)) {
		r.err = fmt.Errorf("netsim: checkpoint claims %d elements with %d bytes left", n, len(r.buf)-r.off)
		return 0
	}
	return int(n)
}

// configHash digests every configuration field that influences results into
// one value, so Restore can refuse a checkpoint written under a different
// experiment. The execution-mechanism knob DenseStep is deliberately
// excluded — results are proven byte-identical across both step loops, so a
// checkpoint written under one may resume under the other. Config.Dest is also
// excluded (functions cannot be hashed): callers must resume with the same
// traffic pattern, exactly as they must pass the same Config.
func (s *Sim) configHash() uint64 {
	w := &cw{}
	net := s.net
	w.i(net.Switches)
	w.i(s.numHosts)
	w.i(s.numChannels)
	for c := 0; c < s.numChannels; c++ {
		from, to := net.ChannelEnds(c)
		w.i(from)
		w.i(to)
	}
	for h := 0; h < s.numHosts; h++ {
		w.i(net.SwitchOf(h))
	}
	w.i(int(s.cfg.Table.Scheme))
	w.i(s.cfg.Table.NumVCs)
	// The full routing content, not just the scheme: tables rewritten by
	// the route optimizer (or recomputed on a degraded topology) route
	// differently under the same scheme, and a snapshot's in-flight
	// packets embed route pointers that only make sense under the table
	// that launched them.
	w.u64(s.cfg.Table.Fingerprint())
	w.i64(s.cfg.Seed)
	w.f64(s.cfg.Load)
	w.i(s.cfg.MessageBytes)
	w.i(s.cfg.WarmupMessages)
	w.i(s.cfg.MeasureMessages)
	w.i64(s.cfg.MaxCycles)
	w.b(s.cfg.CollectLinkUtil)
	w.b(s.cfg.Metrics != nil)
	if s.cfg.Metrics != nil {
		w.i64(s.cfg.Metrics.WindowCycles)
		w.i(s.cfg.Metrics.MaxWindows)
	}
	p := s.p
	w.f64(p.CycleNs)
	w.i(p.LinkFlightCycles)
	w.i(p.RoutingCycles)
	w.i(p.SlackBufferFlits)
	w.i(p.StopThreshold)
	w.i(p.GoThreshold)
	w.i(p.ITBDetectFlits)
	w.i(p.ITBDMAFlits)
	w.i(p.ITBPoolBytes)
	w.i(p.SourceQueueCap)
	w.i(p.SourceBubblePeriod)
	w.i(p.VCs)
	w.i(p.VCBufFlits)
	w.i64(p.WatchdogCycles)
	w.i64(p.DetectionCycles)
	w.i64(p.ProbeCycles)
	w.i64(p.DrainCycles)
	w.i64(p.RetryTimeoutCycles)
	w.i(p.RetryLimit)
	var events []faults.Event
	if !s.cfg.Faults.Empty() {
		events = s.cfg.Faults.Sorted()
	}
	w.i(len(events))
	for _, e := range events {
		w.i64(e.Cycle)
		w.i(int(e.Kind))
		w.i(e.ID)
	}
	h := fnv.New64a()
	//lint:ignore errcheck-lite hash.Hash.Write is documented to never return an error
	h.Write(w.buf)
	return h.Sum64()
}

// ckptReg holds the pointer registries of one snapshot: every packet,
// message, re-injection record, and route reachable from the simulator state
// gets a stable 1-based index (0 encodes nil), assigned in a fixed
// deterministic walk order so the byte stream is reproducible.
type ckptReg struct {
	pkts   []*packet
	pktIdx map[*packet]int
	msgs   []*msgState
	msgIdx map[*msgState]int
	reinjs []*reinjState
	rjIdx  map[*reinjState]int
	routes []*routes.Route
	rtIdx  map[*routes.Route]int
}

func (g *ckptReg) regRoute(r *routes.Route) {
	if r == nil {
		return
	}
	if _, ok := g.rtIdx[r]; ok {
		return
	}
	g.routes = append(g.routes, r)
	g.rtIdx[r] = len(g.routes)
}

func (g *ckptReg) regPkt(p *packet) {
	if p == nil {
		return
	}
	if _, ok := g.pktIdx[p]; ok {
		return
	}
	g.pkts = append(g.pkts, p)
	g.pktIdx[p] = len(g.pkts)
	g.regRoute(p.route)
}

func (g *ckptReg) regMsg(m *msgState) {
	if m == nil {
		return
	}
	if _, ok := g.msgIdx[m]; ok {
		return
	}
	g.msgs = append(g.msgs, m)
	g.msgIdx[m] = len(g.msgs)
}

func (g *ckptReg) regReinj(r *reinjState) {
	if r == nil {
		return
	}
	if _, ok := g.rjIdx[r]; ok {
		return
	}
	g.reinjs = append(g.reinjs, r)
	g.rjIdx[r] = len(g.reinjs)
	g.regPkt(r.pkt)
}

func (g *ckptReg) pktRef(p *packet) int {
	if p == nil {
		return 0
	}
	return g.pktIdx[p]
}

func (g *ckptReg) msgRef(m *msgState) int {
	if m == nil {
		return 0
	}
	return g.msgIdx[m]
}

func (g *ckptReg) rjRef(r *reinjState) int {
	if r == nil {
		return 0
	}
	return g.rjIdx[r]
}

// buildRegistries walks the simulator state in a fixed order (timers, then
// links, then switch inputs, then NICs) registering every reachable object.
// The closing fixpoint loop covers the two-way packet<->message references:
// a retried message can hold a dead packet no buffer references any more,
// and fireTimer still reads that packet's dead flag.
func (s *Sim) buildRegistries() *ckptReg {
	g := &ckptReg{
		pktIdx: map[*packet]int{},
		msgIdx: map[*msgState]int{},
		rjIdx:  map[*reinjState]int{},
		rtIdx:  map[*routes.Route]int{},
	}
	if s.fe != nil {
		for i := range s.fe.timers {
			g.regMsg(s.fe.timers[i].m)
		}
	}
	for i := range s.links {
		l := &s.links[i]
		for _, f := range l.flits[l.flHead:] {
			g.regPkt(f.pkt)
		}
	}
	for i := range s.inPorts {
		ip := &s.inPorts[i]
		for _, seg := range ip.buf.segs[ip.buf.head:] {
			g.regPkt(seg.pkt)
		}
		for v := range ip.vcs {
			for _, seg := range ip.vcs[v].buf.segs[ip.vcs[v].buf.head:] {
				g.regPkt(seg.pkt)
			}
		}
	}
	for h := range s.nics {
		n := &s.nics[h]
		for _, p := range n.sendQ[n.sendQH:] {
			g.regPkt(p)
		}
		for _, r := range n.pending {
			g.regReinj(r)
		}
		for _, r := range n.reinjQ[n.reinjH:] {
			g.regReinj(r)
		}
		g.regReinj(n.cur.reinj)
		g.regPkt(n.cur.pkt)
		g.regPkt(n.rxPkt)
		g.regReinj(n.rxReinj)
		for v := range n.rxVC {
			g.regPkt(n.rxVC[v].pkt)
		}
	}
	// Fixpoint over the cross-references; both lists only grow.
	pi, mi := 0, 0
	for pi < len(g.pkts) || mi < len(g.msgs) {
		if pi < len(g.pkts) {
			g.regMsg(g.pkts[pi].msg)
			pi++
			continue
		}
		g.regPkt(g.msgs[mi].pkt)
		mi++
	}
	return g
}

// Snapshot serializes the complete mid-run state of the simulator into a
// self-describing binary checkpoint. It must be called at a cycle boundary
// (between step calls — the CheckpointEvery hook and external callers
// between Run invocations both qualify) and refuses configurations whose
// state cannot round-trip: a Tracer or Notify callback, or a routing table
// with an adaptive Selector. Restore the result with Restore or
// ResumeContext under the same Config.
func (s *Sim) Snapshot() ([]byte, error) {
	if s.cfg.Tracer != nil || s.cfg.Notify != nil {
		return nil, fmt.Errorf("netsim: cannot snapshot a Sim with a Tracer or Notify callback")
	}
	if s.cfg.Table.HasSelector() {
		return nil, fmt.Errorf("netsim: cannot snapshot a Sim whose table has an adaptive Selector")
	}
	g := s.buildRegistries()
	w := &cw{buf: make([]byte, 0, 1<<16)}

	// Header.
	w.buf = append(w.buf, ckptMagic...)
	w.u32(ckptVersion)
	w.u64(s.configHash())
	w.i64(s.now)

	// Routes, serialized by content (deduplicated by pointer; the simulator
	// never compares route pointers, so restoring distinct objects with
	// equal content is behavior-preserving).
	w.i(len(g.routes))
	for _, r := range g.routes {
		w.i(r.SrcSwitch)
		w.i(r.DstSwitch)
		w.i(r.Hops)
		w.i(r.AltIndex)
		w.i(r.VC)
		w.i(len(r.Segs))
		for _, seg := range r.Segs {
			w.i(seg.ITBHost)
			w.i(len(seg.Channels))
			for _, c := range seg.Channels {
				w.i(c)
			}
		}
	}

	// Messages.
	w.i(len(g.msgs))
	for _, m := range g.msgs {
		w.i(m.src)
		w.i(m.dst)
		w.i(m.payload)
		w.i64(m.genCycle)
		w.b(m.measured)
		w.i64(m.seq)
		w.i(g.pktRef(m.pkt))
		w.i(m.attempts)
		w.b(m.done)
		w.b(m.lost)
	}

	// Packets.
	w.i(len(g.pkts))
	for _, p := range g.pkts {
		rt := 0
		if p.route != nil {
			rt = g.rtIdx[p.route]
		}
		w.i64(p.id)
		w.i(p.srcHost)
		w.i(p.dstHost)
		w.i(rt)
		w.i(p.segIdx)
		w.i(p.chanIdx)
		w.i(p.wireFlits)
		w.i(p.payload)
		w.u8(p.vc)
		w.i64(p.genCycle)
		w.i64(p.injectCycle)
		w.i(p.itbVisits)
		w.b(p.measured)
		w.i(g.msgRef(p.msg))
		w.i(p.attempt)
		w.b(p.dead)
		w.b(p.injected)
	}

	// Re-injection records.
	w.i(len(g.reinjs))
	for _, r := range g.reinjs {
		w.i(g.pktRef(r.pkt))
		w.i(r.expected)
		w.i(r.received)
		w.b(r.recvDone)
		w.i64(r.readyAt)
		w.b(r.queued)
		w.i(r.toSend)
		w.i(r.sent)
		w.b(r.released)
	}

	// Links: dynamic state only (down is re-derived from the fault set).
	w.i(len(s.links))
	for i := range s.links {
		l := &s.links[i]
		w.b(l.stopped)
		w.i64(l.busy)
		w.i64(l.idleStopped)
		w.i(len(l.credits))
		for _, c := range l.credits {
			w.i(int(c))
		}
		w.i(len(l.flits) - l.flHead)
		for _, f := range l.flits[l.flHead:] {
			w.i(g.pktRef(f.pkt))
			w.b(f.tail)
			w.i64(f.arrive)
		}
		w.i(len(l.signals) - l.sgHead)
		for _, sg := range l.signals[l.sgHead:] {
			w.b(sg.stop)
			w.u8(sg.vc)
			w.i64(sg.arrive)
		}
	}

	writeFifo := func(f *fifo) {
		w.i(f.occ)
		w.i(len(f.segs) - f.head)
		for _, seg := range f.segs[f.head:] {
			w.i(g.pktRef(seg.pkt))
			w.i(seg.flits)
			w.b(seg.tail)
		}
	}

	// Switch input ports.
	w.i(len(s.inPorts))
	for i := range s.inPorts {
		ip := &s.inPorts[i]
		w.i(ip.conn)
		w.i(ip.pendingOut)
		w.b(ip.lastSignalStop)
		writeFifo(&ip.buf)
		w.i(len(ip.vcs))
		for v := range ip.vcs {
			w.i(ip.vcs[v].conn)
			w.i(ip.vcs[v].pendingOut)
			writeFifo(&ip.vcs[v].buf)
		}
	}

	// Switch output ports.
	w.i(len(s.outPorts))
	for i := range s.outPorts {
		op := &s.outPorts[i]
		w.i(op.state)
		w.i(op.setupLeft)
		w.i(op.inp)
		w.i(op.rr)
		w.u32(op.reqMask)
		w.i(op.nconn)
		w.i(op.setupVC)
		w.i(op.txRR)
		w.i(len(op.vcReq))
		for _, v := range op.vcReq {
			w.u32(v)
		}
		w.i(len(op.vconn))
		for _, v := range op.vconn {
			w.i(int(v))
		}
	}

	// Switch idle-skip counters.
	w.i(len(s.switches))
	for i := range s.switches {
		sw := &s.switches[i]
		w.i(sw.waiting)
		w.i(sw.setups)
		w.i(sw.conns)
	}

	// NICs.
	w.i(len(s.nics))
	for h := range s.nics {
		n := &s.nics[h]
		w.i(n.sendQLen())
		for _, p := range n.sendQ[n.sendQH:] {
			w.i(g.pktRef(p))
		}
		w.i(len(n.reinjQ) - n.reinjH)
		for _, r := range n.reinjQ[n.reinjH:] {
			w.i(g.rjRef(r))
		}
		w.i(g.pktRef(n.cur.pkt))
		w.i(n.cur.toSend)
		w.i(n.cur.sent)
		w.i(g.rjRef(n.cur.reinj))
		w.b(n.active)
		w.i(g.pktRef(n.rxPkt))
		w.i(n.rxCount)
		w.i(n.rxExpected)
		w.i64(n.rxStart)
		w.i(g.rjRef(n.rxReinj))
		w.i(len(n.rxVC))
		for v := range n.rxVC {
			w.i(g.pktRef(n.rxVC[v].pkt))
			w.i(n.rxVC[v].count)
		}
		w.i(len(n.pending))
		for _, r := range n.pending {
			w.i(g.rjRef(r))
		}
		w.i(n.poolUsed)
		w.i(n.poolPeak)
		w.i64(n.overflows)
		w.u64(n.rng.state)
		w.f64(n.nextGen)
		w.b(n.stopGen)
		w.i64(n.genSeq)
		w.b(n.genArmed)
		w.i(n.sinceBubble)
	}

	// Simulator-wide counters.
	w.i64(s.progress)
	w.i64(s.generatedTotal)
	w.i64(s.deliveredTotal)
	w.i64(s.outstanding)
	w.b(s.measuring)
	w.i64(s.measureStart)
	w.i64(s.measITBSum)
	w.i64(s.measCount)
	w.i64(s.windowDeliveredFlits)
	w.i64(s.windowInjectedFlits)

	// Routing-table round-robin cursors (of the live table, which may be a
	// swapped degraded-mode table).
	rr := s.table.RRSnapshot()
	w.i(len(rr))
	for _, row := range rr {
		w.i(len(row))
		for _, v := range row {
			w.u32(v)
		}
	}

	// Fault engine.
	w.b(s.fe != nil)
	if fe := s.fe; fe != nil {
		w.i(fe.planIdx)
		w.i(fe.tableSwapPlanIdx)
		w.i64(fe.seq)
		w.i(fe.phase)
		w.i64(fe.phaseEnd)
		w.i64(fe.eventCycle)
		w.i64(fe.detectAt)
		w.b(fe.needPurge)
		w.i64(fe.drops.InFlight)
		w.i64(fe.drops.DeadSwitch)
		w.i64(fe.drops.DeadOutput)
		w.i64(fe.drops.NoRoute)
		w.i64(fe.retransmits)
		w.i64(fe.lost)
		w.i64(fe.droppedPackets)
		w.i64(fe.reconfigFails)
		w.str(fe.reconfigErr)
		w.i(len(fe.reconfigs))
		for _, rc := range fe.reconfigs {
			w.i64(rc.EventCycle)
			w.i64(rc.DetectCycle)
			w.i64(rc.SwapCycle)
			w.i(rc.Probes)
			w.i(rc.LostHosts)
		}
		// Timers in heap-array order: the array is a valid heap and the
		// (at, seq) keys give one total order, so a direct copy restores
		// identical pop behavior.
		w.i(len(fe.timers))
		for _, t := range fe.timers {
			w.i64(t.at)
			w.i64(t.seq)
			w.i(g.msgRef(t.m))
		}
	}

	// Parked generation timers in heap-array order. Restore re-pushes
	// them; the (at, host) total order (at most one timer per host) makes
	// the pop order independent of the array layout.
	w.i(len(s.genTimers))
	for _, t := range s.genTimers {
		w.i64(t.at)
		w.i(t.host)
	}

	// Measured-latency state: the histograms plus the exact integer cycle
	// totals finalize sets their float sums from.
	latB, err := s.latHist.MarshalBinary()
	if err != nil {
		return nil, err
	}
	netLatB, err := s.netLatHist.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w.bytes(latB)
	w.bytes(netLatB)
	w.i64(s.latCycles)
	w.i64(s.netLatCycles)

	// Windowed metrics collector.
	w.b(s.mx != nil)
	if s.mx != nil {
		mxB, err := s.mx.MarshalBinary()
		if err != nil {
			return nil, err
		}
		w.bytes(mxB)
	}

	return w.buf, nil
}

// Restore builds a fresh Sim from cfg and overwrites its dynamic state with
// a checkpoint written by Snapshot. The configuration must describe the same
// experiment (a header hash over every result-relevant field is verified);
// DenseStep may differ, and the restored Sim then continues
// byte-identically under the other step loop.
// Restoring a checkpoint taken mid-reconfiguration (or after a table swap)
// requires cfg.Reconfigurer, which re-derives the swapped tables
// deterministically instead of the checkpoint carrying them.
func Restore(cfg Config, data []byte) (*Sim, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	r := &cr{buf: data}

	// Header.
	if len(data) < len(ckptMagic) || string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("netsim: not a checkpoint (bad magic)")
	}
	r.off = len(ckptMagic)
	if v := r.u32(); r.err == nil && v != ckptVersion {
		return nil, fmt.Errorf("netsim: checkpoint format version %d, this build reads %d", v, ckptVersion)
	}
	if h := r.u64(); r.err == nil && h != s.configHash() {
		// Typed so callers (and the CLI) can distinguish "wrong experiment"
		// from a corrupt stream: the most common trigger is resuming with a
		// differently built routing table — e.g. an optimizer pass on one
		// side but not the other — which changes the table fingerprint
		// folded into the hash.
		return nil, &topology.ConfigError{Field: "Config", Value: fmt.Sprintf("hash %#x, checkpoint %#x", s.configHash(), h),
			Reason: "checkpoint was written under a different configuration (same network, table, seed, load, parameters and fault plan required)"}
	}
	cycle := r.i64()

	// Routes.
	nRoutes := r.count()
	routesList := make([]*routes.Route, nRoutes)
	for i := 0; i < nRoutes && r.err == nil; i++ {
		rt := &routes.Route{
			SrcSwitch: r.i(),
			DstSwitch: r.i(),
			Hops:      r.i(),
			AltIndex:  r.i(),
			VC:        r.i(),
		}
		nSegs := r.count()
		rt.Segs = make([]routes.Seg, nSegs)
		for j := 0; j < nSegs && r.err == nil; j++ {
			rt.Segs[j].ITBHost = r.i()
			nCh := r.count()
			rt.Segs[j].Channels = make([]int, nCh)
			for k := 0; k < nCh; k++ {
				rt.Segs[j].Channels[k] = r.i()
			}
		}
		routesList[i] = rt
	}
	routeAt := func(ref int) (*routes.Route, error) {
		if ref == 0 {
			return nil, nil
		}
		if ref < 1 || ref > len(routesList) {
			return nil, fmt.Errorf("netsim: checkpoint route ref %d out of range", ref)
		}
		return routesList[ref-1], nil
	}

	// Messages (packet refs resolved after packets decode).
	nMsgs := r.count()
	msgs := make([]*msgState, nMsgs)
	msgPktRef := make([]int, nMsgs)
	for i := 0; i < nMsgs && r.err == nil; i++ {
		m := &msgState{
			src:      r.i(),
			dst:      r.i(),
			payload:  r.i(),
			genCycle: r.i64(),
			measured: r.b(),
			seq:      r.i64(),
		}
		msgPktRef[i] = r.i()
		m.attempts = r.i()
		m.done = r.b()
		m.lost = r.b()
		msgs[i] = m
	}
	msgAt := func(ref int) (*msgState, error) {
		if ref == 0 {
			return nil, nil
		}
		if ref < 1 || ref > len(msgs) {
			return nil, fmt.Errorf("netsim: checkpoint message ref %d out of range", ref)
		}
		return msgs[ref-1], nil
	}

	// Packets.
	nPkts := r.count()
	pkts := make([]*packet, nPkts)
	for i := 0; i < nPkts && r.err == nil; i++ {
		p := &packet{}
		p.id = r.i64()
		p.srcHost = r.i()
		p.dstHost = r.i()
		rt, err := routeAt(r.i())
		if err != nil {
			return nil, err
		}
		p.route = rt
		p.segIdx = r.i()
		p.chanIdx = r.i()
		p.wireFlits = r.i()
		p.payload = r.i()
		p.vc = r.u8()
		p.genCycle = r.i64()
		p.injectCycle = r.i64()
		p.itbVisits = r.i()
		p.measured = r.b()
		m, err := msgAt(r.i())
		if err != nil {
			return nil, err
		}
		p.msg = m
		p.attempt = r.i()
		p.dead = r.b()
		p.injected = r.b()
		pkts[i] = p
	}
	pktAt := func(ref int) (*packet, error) {
		if ref == 0 {
			return nil, nil
		}
		if ref < 1 || ref > len(pkts) {
			return nil, fmt.Errorf("netsim: checkpoint packet ref %d out of range", ref)
		}
		return pkts[ref-1], nil
	}
	for i := range msgs {
		p, err := pktAt(msgPktRef[i])
		if err != nil {
			return nil, err
		}
		msgs[i].pkt = p
	}

	// Re-injection records.
	nRj := r.count()
	reinjs := make([]*reinjState, nRj)
	for i := 0; i < nRj && r.err == nil; i++ {
		rj := &reinjState{}
		p, err := pktAt(r.i())
		if err != nil {
			return nil, err
		}
		rj.pkt = p
		rj.expected = r.i()
		rj.received = r.i()
		rj.recvDone = r.b()
		rj.readyAt = r.i64()
		rj.queued = r.b()
		rj.toSend = r.i()
		rj.sent = r.i()
		rj.released = r.b()
		reinjs[i] = rj
	}
	rjAt := func(ref int) (*reinjState, error) {
		if ref == 0 {
			return nil, nil
		}
		if ref < 1 || ref > len(reinjs) {
			return nil, fmt.Errorf("netsim: checkpoint reinjection ref %d out of range", ref)
		}
		return reinjs[ref-1], nil
	}

	// Links.
	if n := r.count(); r.err == nil && n != len(s.links) {
		return nil, fmt.Errorf("netsim: checkpoint has %d links, network has %d", n, len(s.links))
	}
	for i := range s.links {
		if r.err != nil {
			break
		}
		l := &s.links[i]
		l.stopped = r.b()
		l.busy = r.i64()
		l.idleStopped = r.i64()
		nCr := r.count()
		if nCr != len(l.credits) {
			if r.err == nil {
				return nil, fmt.Errorf("netsim: checkpoint link %d has %d credit lanes, sim has %d", i, nCr, len(l.credits))
			}
			break
		}
		for v := 0; v < nCr; v++ {
			l.credits[v] = int16(r.i())
		}
		nFl := r.count()
		l.flits = l.flits[:0]
		l.flHead = 0
		for k := 0; k < nFl && r.err == nil; k++ {
			p, err := pktAt(r.i())
			if err != nil {
				return nil, err
			}
			l.flits = append(l.flits, flitInFlight{pkt: p, tail: r.b(), arrive: r.i64()})
		}
		nSg := r.count()
		l.signals = l.signals[:0]
		l.sgHead = 0
		for k := 0; k < nSg && r.err == nil; k++ {
			l.signals = append(l.signals, signalInFlight{stop: r.b(), vc: r.u8(), arrive: r.i64()})
		}
	}

	readFifo := func(f *fifo) error {
		f.occ = r.i()
		n := r.count()
		f.segs = f.segs[:0]
		f.head = 0
		for k := 0; k < n && r.err == nil; k++ {
			p, err := pktAt(r.i())
			if err != nil {
				return err
			}
			f.segs = append(f.segs, flitSeg{pkt: p, flits: r.i(), tail: r.b()})
		}
		return nil
	}

	// Switch input ports.
	if n := r.count(); r.err == nil && n != len(s.inPorts) {
		return nil, fmt.Errorf("netsim: checkpoint has %d input ports, sim has %d", n, len(s.inPorts))
	}
	for i := range s.inPorts {
		if r.err != nil {
			break
		}
		ip := &s.inPorts[i]
		ip.conn = r.i()
		ip.pendingOut = r.i()
		ip.lastSignalStop = r.b()
		if err := readFifo(&ip.buf); err != nil {
			return nil, err
		}
		nVC := r.count()
		if r.err == nil && nVC != len(ip.vcs) {
			return nil, fmt.Errorf("netsim: checkpoint input port %d has %d lanes, sim has %d", i, nVC, len(ip.vcs))
		}
		for v := 0; v < nVC && r.err == nil; v++ {
			ip.vcs[v].conn = r.i()
			ip.vcs[v].pendingOut = r.i()
			if err := readFifo(&ip.vcs[v].buf); err != nil {
				return nil, err
			}
		}
	}

	// Switch output ports.
	if n := r.count(); r.err == nil && n != len(s.outPorts) {
		return nil, fmt.Errorf("netsim: checkpoint has %d output ports, sim has %d", n, len(s.outPorts))
	}
	for i := range s.outPorts {
		if r.err != nil {
			break
		}
		op := &s.outPorts[i]
		op.state = r.i()
		op.setupLeft = r.i()
		op.inp = r.i()
		op.rr = r.i()
		op.reqMask = r.u32()
		op.nconn = r.i()
		op.setupVC = r.i()
		op.txRR = r.i()
		nReq := r.count()
		if r.err == nil && nReq != len(op.vcReq) {
			return nil, fmt.Errorf("netsim: checkpoint output port %d lane mismatch", i)
		}
		for v := 0; v < nReq; v++ {
			op.vcReq[v] = r.u32()
		}
		nConn := r.count()
		if r.err == nil && nConn != len(op.vconn) {
			return nil, fmt.Errorf("netsim: checkpoint output port %d lane mismatch", i)
		}
		for v := 0; v < nConn; v++ {
			op.vconn[v] = int32(r.i())
		}
	}

	// Switch counters.
	if n := r.count(); r.err == nil && n != len(s.switches) {
		return nil, fmt.Errorf("netsim: checkpoint has %d switches, sim has %d", n, len(s.switches))
	}
	for i := range s.switches {
		sw := &s.switches[i]
		sw.waiting = r.i()
		sw.setups = r.i()
		sw.conns = r.i()
	}

	// NICs.
	if n := r.count(); r.err == nil && n != len(s.nics) {
		return nil, fmt.Errorf("netsim: checkpoint has %d NICs, sim has %d", n, len(s.nics))
	}
	for h := range s.nics {
		if r.err != nil {
			break
		}
		n := &s.nics[h]
		nSend := r.count()
		n.sendQ = n.sendQ[:0]
		n.sendQH = 0
		for k := 0; k < nSend && r.err == nil; k++ {
			p, err := pktAt(r.i())
			if err != nil {
				return nil, err
			}
			n.sendQ = append(n.sendQ, p)
		}
		nRe := r.count()
		n.reinjQ = n.reinjQ[:0]
		n.reinjH = 0
		for k := 0; k < nRe && r.err == nil; k++ {
			rj, err := rjAt(r.i())
			if err != nil {
				return nil, err
			}
			n.reinjQ = append(n.reinjQ, rj)
		}
		curPkt, err := pktAt(r.i())
		if err != nil {
			return nil, err
		}
		n.cur.pkt = curPkt
		n.cur.toSend = r.i()
		n.cur.sent = r.i()
		curRj, err := rjAt(r.i())
		if err != nil {
			return nil, err
		}
		n.cur.reinj = curRj
		n.active = r.b()
		rxPkt, err := pktAt(r.i())
		if err != nil {
			return nil, err
		}
		n.rxPkt = rxPkt
		n.rxCount = r.i()
		n.rxExpected = r.i()
		n.rxStart = r.i64()
		rxRj, err := rjAt(r.i())
		if err != nil {
			return nil, err
		}
		n.rxReinj = rxRj
		nRx := r.count()
		if r.err == nil && nRx != len(n.rxVC) {
			return nil, fmt.Errorf("netsim: checkpoint NIC %d has %d receive lanes, sim has %d", h, nRx, len(n.rxVC))
		}
		for v := 0; v < nRx && r.err == nil; v++ {
			p, err := pktAt(r.i())
			if err != nil {
				return nil, err
			}
			n.rxVC[v].pkt = p
			n.rxVC[v].count = r.i()
		}
		nPend := r.count()
		n.pending = n.pending[:0]
		for k := 0; k < nPend && r.err == nil; k++ {
			rj, err := rjAt(r.i())
			if err != nil {
				return nil, err
			}
			n.pending = append(n.pending, rj)
		}
		n.poolUsed = r.i()
		n.poolPeak = r.i()
		n.overflows = r.i64()
		n.rng.state = r.u64()
		n.nextGen = r.f64()
		n.stopGen = r.b()
		n.genSeq = r.i64()
		n.genArmed = r.b()
		n.sinceBubble = r.i()
	}

	// Simulator-wide counters.
	s.progress = r.i64()
	s.generatedTotal = r.i64()
	s.deliveredTotal = r.i64()
	s.outstanding = r.i64()
	s.measuring = r.b()
	s.measureStart = r.i64()
	s.measITBSum = r.i64()
	s.measCount = r.i64()
	s.windowDeliveredFlits = r.i64()
	s.windowInjectedFlits = r.i64()

	// Round-robin cursors; applied after any table swap is re-derived.
	nRR := r.count()
	var rrSnap [][]uint32
	if nRR > 0 {
		rrSnap = make([][]uint32, nRR)
		for i := 0; i < nRR && r.err == nil; i++ {
			nCols := r.count()
			rrSnap[i] = make([]uint32, nCols)
			for j := 0; j < nCols; j++ {
				rrSnap[i][j] = r.u32()
			}
		}
	}

	// Fault engine: restore the serial counters, then re-derive everything
	// derivable (fault set, down flags, swapped tables, pending
	// reconfiguration, next wake-up).
	hasFE := r.b()
	if r.err == nil && hasFE != (s.fe != nil) {
		return nil, fmt.Errorf("netsim: checkpoint fault state does not match the configuration")
	}
	if fe := s.fe; fe != nil && hasFE {
		fe.planIdx = r.i()
		fe.tableSwapPlanIdx = r.i()
		fe.seq = r.i64()
		fe.phase = r.i()
		fe.phaseEnd = r.i64()
		fe.eventCycle = r.i64()
		fe.detectAt = r.i64()
		fe.needPurge = r.b()
		fe.drops.InFlight = r.i64()
		fe.drops.DeadSwitch = r.i64()
		fe.drops.DeadOutput = r.i64()
		fe.drops.NoRoute = r.i64()
		fe.retransmits = r.i64()
		fe.lost = r.i64()
		fe.droppedPackets = r.i64()
		fe.reconfigFails = r.i64()
		fe.reconfigErr = r.str()
		nRc := r.count()
		fe.reconfigs = nil // keep nil when empty: Result.Reconfigs must match
		if nRc > 0 {
			fe.reconfigs = make([]ReconfigStat, 0, nRc)
		}
		for k := 0; k < nRc && r.err == nil; k++ {
			fe.reconfigs = append(fe.reconfigs, ReconfigStat{
				EventCycle:  r.i64(),
				DetectCycle: r.i64(),
				SwapCycle:   r.i64(),
				Probes:      r.i(),
				LostHosts:   r.i(),
			})
		}
		nT := r.count()
		fe.timers = make(retryHeap, 0, nT)
		for k := 0; k < nT && r.err == nil; k++ {
			at := r.i64()
			seq := r.i64()
			m, err := msgAt(r.i())
			if err != nil {
				return nil, err
			}
			fe.timers = append(fe.timers, retryTimer{at: at, seq: seq, m: m})
		}
		if r.err != nil {
			return nil, r.err
		}
		if fe.planIdx < 0 || fe.planIdx > len(fe.plan) ||
			fe.tableSwapPlanIdx < -1 || fe.tableSwapPlanIdx > len(fe.plan) {
			return nil, fmt.Errorf("netsim: checkpoint plan position out of range")
		}
		for _, e := range fe.plan[:fe.planIdx] {
			fe.set.Apply(e)
		}
		fe.recomputeDown(s)
		for l := range fe.down {
			s.links[l].down = fe.down[l]
		}
		if fe.tableSwapPlanIdx >= 0 {
			if fe.rec == nil {
				return nil, fmt.Errorf("netsim: checkpoint was taken after a table swap; restoring requires Config.Reconfigurer")
			}
			swapSet := faults.NewSet(s.net)
			for _, e := range fe.plan[:fe.tableSwapPlanIdx] {
				swapSet.Apply(e)
			}
			rc, err := fe.rec.Recompute(swapSet)
			if err != nil {
				return nil, fmt.Errorf("netsim: re-deriving swapped routing tables: %w", err)
			}
			s.table = rc.Table.Clone()
		}
		if fe.phase == phaseProbing || fe.phase == phaseDraining {
			if fe.rec == nil {
				return nil, fmt.Errorf("netsim: checkpoint was taken mid-reconfiguration; restoring requires Config.Reconfigurer")
			}
			rc, err := fe.rec.Recompute(fe.set.Clone())
			if err != nil {
				return nil, fmt.Errorf("netsim: re-deriving pending reconfiguration: %w", err)
			}
			fe.pendingRc = rc
		}
		fe.recomputeWake()
	}
	if err := s.table.RestoreRR(rrSnap); err != nil {
		return nil, err
	}

	// Parked generation timers.
	nGT := r.count()
	for k := 0; k < nGT && r.err == nil; k++ {
		at := r.i64()
		host := r.i()
		if host < 0 || host >= s.numHosts {
			return nil, fmt.Errorf("netsim: checkpoint generation timer for host %d out of range", host)
		}
		s.genTimers.push(genTimer{at: at, host: host})
	}

	// Measured-latency state (see Snapshot).
	latB := r.bytes()
	netLatB := r.bytes()
	latCycles := r.i64()
	netLatCycles := r.i64()
	if r.err == nil {
		if err := s.latHist.UnmarshalBinary(latB); err != nil {
			return nil, err
		}
		if err := s.netLatHist.UnmarshalBinary(netLatB); err != nil {
			return nil, err
		}
		s.latCycles = latCycles
		s.netLatCycles = netLatCycles
	}

	// Windowed metrics collector.
	hasMx := r.b()
	if r.err == nil && hasMx != (s.mx != nil) {
		return nil, fmt.Errorf("netsim: checkpoint metrics state does not match the configuration")
	}
	if hasMx && s.mx != nil {
		if err := s.mx.UnmarshalBinary(r.bytes()); err != nil {
			return nil, err
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("netsim: %d trailing bytes after checkpoint", len(data)-r.off)
	}

	s.now = cycle

	// Re-derive the active sets from each component's own activity
	// predicate — the same predicates the phase loops use for removal, so
	// membership is exactly what the uninterrupted run would carry into the
	// next cycle (stale bits it might carry are spurious members whose visit
	// is a no-op; the one observable side effect of such a visit, parking a
	// sleeping NIC's generation timer, is reproduced by the armGen
	// compensation below).
	clear(s.nicSet.words) // New starts every NIC awake
	for i := range s.links {
		l := &s.links[i]
		if len(l.flits) > 0 || len(l.signals) > 0 {
			s.linkSet.add(i)
		}
	}
	for i := range s.switches {
		sw := &s.switches[i]
		if sw.waiting > 0 || sw.setups > 0 {
			s.routingSet.add(i)
		}
		if sw.conns > 0 {
			s.transferSet.add(i)
		}
	}
	for h := range s.nics {
		n := &s.nics[h]
		if s.nicNeedsTick(n) {
			s.nicSet.add(h)
		} else {
			// A NIC the uninterrupted run still carried as a stale set
			// member would be visited once more, do nothing, and park its
			// generation timer on removal; reproduce that parking here.
			// armGen no-ops when the timer is already parked (genArmed),
			// generation is stopped, or the load is zero.
			s.armGen(n)
		}
	}

	return s, nil
}

// ResumeContext restores a checkpoint under cfg and runs it to completion,
// returning the Result the uninterrupted run would have produced. It is the
// resume counterpart of the package-level RunContext.
func ResumeContext(ctx context.Context, cfg Config, snapshot []byte) (*Result, error) {
	s, err := Restore(cfg, snapshot)
	if err != nil {
		return nil, err
	}
	return s.RunContext(ctx)
}

// checkpointFields names, per snapshotted struct type, the fields the codec
// serializes (or, for Config/Params, folds into the header hash);
// checkpointExempt names the fields deliberately left out, each because it
// is rebuilt from the configuration, re-derived on restore, or provably
// zero/empty at a cycle boundary. TestCheckpointFieldCoverage walks the real
// struct definitions by reflection and fails when a new field appears in
// neither map — the forcing function that keeps the codec complete as the
// simulator grows.
var checkpointFields = map[string][]string{
	"netsim.Config": {"Net", "Table", "Load", "MessageBytes", "Seed", "WarmupMessages",
		"MeasureMessages", "MaxCycles", "CollectLinkUtil", "Metrics", "Faults", "Params"},
	"netsim.Params": {"CycleNs", "LinkFlightCycles", "RoutingCycles", "SlackBufferFlits",
		"StopThreshold", "GoThreshold", "ITBDetectFlits", "ITBDMAFlits", "ITBPoolBytes",
		"SourceQueueCap", "SourceBubblePeriod", "VCs", "VCBufFlits", "WatchdogCycles",
		"DetectionCycles", "ProbeCycles", "DrainCycles", "RetryTimeoutCycles", "RetryLimit"},
	"netsim.Sim": {"now", "progress", "table", "fe", "links", "inPorts", "outPorts",
		"switches", "nics", "genTimers", "generatedTotal", "deliveredTotal", "outstanding",
		"measuring", "measureStart", "measITBSum", "measCount", "latHist", "netLatHist",
		"latCycles", "netLatCycles", "mx", "windowDeliveredFlits", "windowInjectedFlits"},
	"netsim.link": {"stopped", "credits", "flits", "flHead", "signals", "sgHead",
		"busy", "idleStopped"},
	"netsim.flitInFlight":   {"pkt", "tail", "arrive"},
	"netsim.signalInFlight": {"stop", "vc", "arrive"},
	"netsim.inPort":         {"buf", "conn", "pendingOut", "lastSignalStop", "vcs"},
	"netsim.outPort": {"state", "setupLeft", "inp", "rr", "reqMask", "vcReq", "vconn",
		"nconn", "setupVC", "txRR"},
	"netsim.swtch": {"waiting", "setups", "conns"},
	"netsim.nic": {"sendQ", "sendQH", "reinjQ", "reinjH", "cur", "active", "rxPkt",
		"rxCount", "rxExpected", "rxStart", "rxReinj", "rxVC", "pending", "poolUsed",
		"poolPeak", "overflows", "rng", "nextGen", "stopGen", "genSeq", "genArmed",
		"sinceBubble"},
	"netsim.injection":  {"pkt", "toSend", "sent", "reinj"},
	"netsim.reinjState": {"pkt", "expected", "received", "recvDone", "readyAt", "queued", "toSend", "sent", "released"},
	"netsim.packet": {"id", "srcHost", "dstHost", "route", "segIdx", "chanIdx",
		"wireFlits", "payload", "vc", "genCycle", "injectCycle", "itbVisits", "measured",
		"msg", "attempt", "dead", "injected"},
	"netsim.msgState":   {"src", "dst", "payload", "genCycle", "measured", "seq", "pkt", "attempts", "done", "lost"},
	"netsim.retryTimer": {"at", "seq", "m"},
	"netsim.fifo":       {"segs", "head", "occ"},
	"netsim.flitSeg":    {"pkt", "flits", "tail"},
	"netsim.vcIn":       {"buf", "conn", "pendingOut"},
	"netsim.vcRx":       {"pkt", "count"},
	"netsim.genTimer":   {"at", "host"},
	"netsim.faultEngine": {"planIdx", "tableSwapPlanIdx", "timers", "seq", "phase",
		"phaseEnd", "eventCycle", "detectAt", "needPurge", "drops", "retransmits",
		"lost", "reconfigs", "reconfigFails", "reconfigErr", "droppedPackets"},
	"netsim.RNG":          {"state"},
	"netsim.DropStats":    {"InFlight", "DeadSwitch", "DeadOutput", "NoRoute"},
	"netsim.ReconfigStat": {"EventCycle", "DetectCycle", "SwapCycle", "Probes", "LostHosts"},
	"metrics.Collector": {"windowCycles", "maxWindows", "startCycle", "nextSample",
		"channels", "switches", "hosts", "busyPrev", "busySeries", "windows",
		"peakBusyFrac", "occSum", "occPeak", "poolSum", "poolPeak", "ejects",
		"reinjects", "backpressure", "delivPrev", "dropPrev", "retransPrev",
		"delivSeries", "dropSeries", "retransSeries", "numVCs", "vcOccSum",
		"vcOccPeak", "vcOccSeries", "vcCount", "samples"},
	"metrics.Histogram": {"counts", "count", "sum", "min", "max"},
	"routes.Table":      {"rr"},
	"routes.Route":      {"SrcSwitch", "DstSwitch", "Segs", "Hops", "AltIndex", "VC"},
	"routes.Seg":        {"Channels", "ITBHost"},
}

var checkpointExempt = map[string][]string{
	// Functions, callbacks, and execution-mechanism knobs: not part of the
	// experiment's identity (Dest is the caller's obligation to repeat).
	"netsim.Config": {"Dest", "Notify", "Tracer", "Reconfigurer", "DenseStep",
		"CheckpointEvery", "CheckpointSink"},
	// Rebuilt from the configuration by New. Active sets are re-derived
	// from component state; the dead-route list is empty at every cycle
	// boundary; the packet arena is an allocator, not state.
	"netsim.Sim": {"cfg", "p", "net", "outPortOfLink", "linkSet", "routingSet",
		"transferSet", "nicSet", "dense", "deadRouteReqs", "pktChunk", "pktUsed",
		"numChannels", "numHosts", "vcMode", "numVCs", "genIntervalCycles"},
	// Build-time wiring; down is re-derived from the fault set.
	"netsim.link":    {"id", "recvPort", "recvNIC", "down"},
	"netsim.inPort":  {"sw", "link", "localIdx"},
	"netsim.outPort": {"sw", "link"},
	"netsim.swtch":   {"id", "ins", "outs"},
	"netsim.nic":     {"host", "upLink"},
	"netsim.bitset":  {"words"},
	// plan/rec come from the configuration; set/down/pendingRc/nextWake are
	// re-derived on restore.
	"netsim.faultEngine": {"plan", "set", "rec", "down", "pendingRc", "nextWake"},
	// Net/Scheme/Alts/NumVCs are rebuilt by table construction and pinned
	// by the config hash — which folds in Table.Fingerprint(), so the full
	// routing content (optimized, degraded, or static) must match, not
	// just the scheme. Snapshot rejects tables with a Selector.
	"routes.Table": {"Net", "Scheme", "Alts", "NumVCs", "sel"},
}
