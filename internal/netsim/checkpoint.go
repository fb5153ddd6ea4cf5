package netsim

import (
	"bytes"
	"cmp"
	"context"
	"encoding"
	"fmt"
	"hash/fnv"
	"math/bits"
	"slices"

	"itbsim/internal/faults"
	"itbsim/internal/routes"
	"itbsim/internal/topology"
	"itbsim/internal/wire"
)

// This file is the snapshot/restore codec: a mid-run Sim serializes into a
// self-describing binary checkpoint and restores into a fresh Sim that
// continues byte-identically (docs/CHECKPOINT.md). The format is
// little-endian, length-prefixed, and versioned; the header carries a hash
// of every result-relevant configuration field so a checkpoint cannot be
// resumed under a different experiment.
//
// One walk, Sim.state, names every serialized field once: Snapshot runs it
// through an internal/wire writer and Restore through a reader over a fresh
// Sim, so the two directions cannot drift apart. The reader bounds every
// length by the bytes left and checks every cross-reference and every
// dimension the configuration already fixes.
//
// Snapshots are taken at cycle boundaries only (between step calls), where
// the end-of-cycle dead-route list is empty. Derived state is not
// serialized but recomputed on restore (Sim.rederive): fault-engine down
// flags and fault set replay from the plan position, swapped routing tables
// from the (deterministic, memoized) Reconfigurer, switch port masks from
// the output ports' states, active sets from each component's own idle
// predicate, and the fault engine's next wake-up from its timer sources.
// Re-deriving the active sets rather than copying bitsets is what lets a
// checkpoint written under one step loop resume under the other. Parked
// components (see activeset.go) are settled and woken before the walk, so
// the parking state is empty when written; on restore, every injecting NIC
// is back in the tick set, as the settle left it.

const (
	ckptMagic   = "ITBCKPT\x00"
	ckptVersion = 1
	// ckptLenSize is the width of the checkpoint's slice length prefixes.
	ckptLenSize = 8
)

// configHash digests every configuration field that influences results into
// one value, so Restore can refuse a checkpoint written under a different
// experiment. The execution-mechanism knob denseStep is deliberately
// excluded — results are proven byte-identical across both step loops, so a
// checkpoint written under one may resume under the other. Config.Dest is also
// excluded (functions cannot be hashed): callers must resume with the same
// traffic pattern, exactly as they must pass the same Config. A selector
// installed on the table adds its kind (dynamic type) and its config (the
// state a fresh Clone starts from); without one the hash is unchanged.
func (s *Sim) configHash() (uint64, error) {
	w := wire.NewWriter(nil, ckptLenSize)
	i := func(v int) { wire.Int(w, &v) }
	i64 := func(v int64) { wire.Int(w, &v) }
	b := func(v bool) { w.Bool(&v) }
	net := s.net
	i(net.Switches)
	i(s.numHosts)
	i(s.numChannels)
	for c := 0; c < s.numChannels; c++ {
		from, to := net.ChannelEnds(c)
		i(from)
		i(to)
	}
	for h := 0; h < s.numHosts; h++ {
		i(net.SwitchOf(h))
	}
	i(int(s.cfg.Table.Scheme))
	i(s.cfg.Table.NumVCs)
	// The full routing content, not just the scheme: tables rewritten by
	// the route optimizer (or recomputed on a degraded topology) route
	// differently under the same scheme, and a snapshot's in-flight
	// packets embed route pointers that only make sense under the table
	// that launched them.
	fp := s.cfg.Table.Fingerprint()
	w.U64(&fp)
	if sel := s.cfg.Table.Selector(); sel != nil {
		kind := []byte(fmt.Sprintf("%T", sel))
		w.Blob(&kind)
		fresh, err := sel.Clone().MarshalBinary()
		if err != nil {
			return 0, err
		}
		w.Blob(&fresh)
	}
	i64(s.cfg.Seed)
	load := s.cfg.Load
	w.F64(&load)
	i(s.cfg.MessageBytes)
	i(s.cfg.WarmupMessages)
	i(s.cfg.MeasureMessages)
	i64(s.cfg.MaxCycles)
	b(s.cfg.CollectLinkUtil)
	b(s.cfg.Metrics != nil)
	if s.cfg.Metrics != nil {
		i64(s.cfg.Metrics.WindowCycles)
		i(s.cfg.Metrics.MaxWindows)
	}
	p := s.p
	w.F64(&p.CycleNs)
	i(p.LinkFlightCycles)
	i(p.RoutingCycles)
	i(p.SlackBufferFlits)
	i(p.StopThreshold)
	i(p.GoThreshold)
	i(p.ITBDetectFlits)
	i(p.ITBDMAFlits)
	i(p.ITBPoolBytes)
	i(p.SourceQueueCap)
	i(p.SourceBubblePeriod)
	// The resolved lane count (the table's NumVCs) sits where the format's
	// first version wrote a lane-count parameter, so the hash is unchanged.
	i(s.numVCs)
	i(p.VCBufFlits)
	i64(p.WatchdogCycles)
	i64(p.DetectionCycles)
	i64(p.ProbeCycles)
	i64(p.DrainCycles)
	i64(p.RetryTimeoutCycles)
	i(p.RetryLimit)
	var events []faults.Event
	if !s.cfg.Faults.Empty() {
		events = s.cfg.Faults.Sorted()
	}
	i(len(events))
	for _, e := range events {
		i64(e.Cycle)
		i(int(e.Kind))
		i(e.ID)
	}
	h := fnv.New64a()
	//lint:ignore errcheck-lite hash.Hash.Write is documented to never return an error
	h.Write(w.Bytes())
	return h.Sum64(), nil
}

// table is one pointer registry of a snapshot: every object of type T
// reachable from the simulator state gets a stable 1-based index (0 encodes
// nil), assigned in a fixed deterministic walk order so the byte stream is
// reproducible and shared objects stay shared after restore.
type table[T any] struct {
	list []*T
	idx  map[*T]int
}

// add registers p and reports whether it was new; nil is never registered.
func (t *table[T]) add(p *T) bool {
	if p == nil {
		return false
	}
	if _, ok := t.idx[p]; ok {
		return false
	}
	if t.idx == nil {
		t.idx = map[*T]int{}
	}
	t.list = append(t.list, p)
	t.idx[p] = len(t.list)
	return true
}

// at resolves a decoded index, failing c when it is out of range.
func (t *table[T]) at(c *wire.Codec, i int) *T {
	if i < 0 || i > len(t.list) {
		c.Fail(fmt.Errorf("reference %d to a %T out of range [0, %d]", i, (*T)(nil), len(t.list)))
		return nil
	}
	if i == 0 {
		return nil
	}
	return t.list[i-1]
}

// ref writes the index of *p, or reads an index and points *p at that
// object of the decoded table.
func (t *table[T]) ref(c *wire.Codec, p **T) {
	i := t.idx[*p]
	wire.Int(c, &i)
	if c.Reading() {
		*p = t.at(c, i)
	}
}

// walk writes or reads the table itself: its length, then every object
// through elem (a reader allocates each object before decoding into it).
func (t *table[T]) walk(c *wire.Codec, elem func(*T)) {
	wire.Slice(c, &t.list, func(c *wire.Codec, p **T) {
		if *p == nil {
			*p = new(T)
		}
		elem(*p)
	})
}

// registry holds the pointer tables of one snapshot. A reader starts from
// empty tables and fills them as it decodes.
type registry struct {
	routes table[routes.Route]
	msgs   table[msgState]
	pkts   table[packet]
	reinjs table[reinjState]
}

// registries walks the simulator state in a fixed order (timers, then
// links, then switch inputs, then NICs) registering every reachable object.
// The closing fixpoint loop covers the two-way packet<->message references:
// a retried message can hold a dead packet no buffer references any more,
// and fireTimer still reads that packet's dead flag.
func (s *Sim) registries() *registry {
	g := &registry{}
	pkt := func(p *packet) {
		if g.pkts.add(p) {
			g.routes.add(p.route)
		}
	}
	reinj := func(r *reinjState) {
		if g.reinjs.add(r) {
			pkt(r.pkt)
		}
	}
	if s.fe != nil {
		for i := range s.fe.timers {
			g.msgs.add(s.fe.timers[i].m)
		}
	}
	for i := range s.links {
		for _, f := range s.links[i].cable(s.seen) {
			pkt(f.pkt)
		}
	}
	for i := range s.inPorts {
		for _, in := range s.inPorts[i].lanes() {
			for _, seg := range in.buf.segments(s.seen) {
				pkt(seg.pkt)
			}
		}
	}
	for h := range s.nics {
		n := &s.nics[h]
		for _, p := range n.sendQ[n.sendQH:] {
			pkt(p)
		}
		for _, r := range n.pending {
			reinj(r)
		}
		for _, r := range n.reinjQ[n.reinjH:] {
			reinj(r)
		}
		reinj(n.cur.reinj)
		pkt(n.cur.pkt)
		pkt(n.rxPkt)
		reinj(n.rxReinj)
		for v := range n.rxVC {
			pkt(n.rxVC[v].pkt)
		}
	}
	// Fixpoint over the cross-references; both lists only grow.
	pi, mi := 0, 0
	for pi < len(g.pkts.list) || mi < len(g.msgs.list) {
		if pi < len(g.pkts.list) {
			g.msgs.add(g.pkts.list[pi].msg)
			pi++
			continue
		}
		pkt(g.msgs.list[mi].pkt)
		mi++
	}
	return g
}

// nested embeds a metrics value as a blob of its own binary codec.
func nested(c *wire.Codec, v interface {
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}) {
	var b []byte
	if !c.Reading() {
		var err error
		if b, err = v.MarshalBinary(); err != nil {
			c.Fail(err)
		}
	}
	c.Blob(&b)
	if c.Reading() && c.Err() == nil {
		if err := v.UnmarshalBinary(b); err != nil {
			c.Fail(err)
		}
	}
}

// cableFlit is one flit in flight as a checkpoint writes it.
type cableFlit struct {
	pkt    *packet
	tail   bool
	arrive int64
}

// bufferSeg is one packet's buffered flits as a checkpoint writes them.
type bufferSeg struct {
	pkt   *packet
	flits int
	tail  bool
}

// cable lists the flits in flight on l after cycle seen, oldest first
// across its lanes (no two share an arrival cycle: a link carries one flit
// per cycle). Flits of dead packets are included, as the cable holds them.
func (l *link) cable(seen int64) []cableFlit {
	var out []cableFlit
	for v := range l.lanes {
		q := &l.lanes[v]
		for i := 0; i < q.runs.n; i++ {
			r := q.runs.at(i)
			for m := r.mask; m != 0; m &= m - 1 {
				if at := r.arrive + int64(bits.TrailingZeros64(m)); at > seen {
					out = append(out, cableFlit{pkt: r.pkt, tail: r.tail && m&(m-1) == 0, arrive: at})
				}
			}
		}
	}
	if len(l.lanes) > 1 {
		slices.SortFunc(out, func(a, b cableFlit) int { return cmp.Compare(a.arrive, b.arrive) })
	}
	return out
}

// restoreCable puts a checkpoint's flits in flight on l's lanes. They must
// arrive in strictly increasing cycles within the flight after the
// snapshot, [now, now + LinkFlightCycles); the flits of a dead packet come
// back stale.
func (l *link) restoreCable(s *Sim, cable []cableFlit) error {
	prev := s.seen
	for _, f := range cable {
		if f.pkt == nil {
			return fmt.Errorf("link %d: flit in flight without a packet", l.id)
		}
		if f.arrive <= prev || f.arrive >= s.now+int64(s.p.LinkFlightCycles) {
			return fmt.Errorf("link %d: flit arriving at cycle %d after one at %d, outside [%d, %d) or out of order",
				l.id, f.arrive, prev, s.now, s.now+int64(s.p.LinkFlightCycles))
		}
		prev = f.arrive
		q := &l.lanes[0]
		if s.vcMode {
			if int(f.pkt.vc) >= len(l.lanes) {
				return fmt.Errorf("link %d: flit on lane %d of %d", l.id, f.pkt.vc, len(l.lanes))
			}
			q = &l.lanes[f.pkt.vc]
		}
		q.push(f.pkt, f.tail, f.arrive)
		q.runs.at(q.runs.n - 1).stale = f.pkt.dead
	}
	return nil
}

// checkSignals refuses control flits a checkpoint put on l that do not
// arrive in order within the flight after the snapshot.
func (l *link) checkSignals(s *Sim) error {
	prev := s.seen
	for i := 0; i < l.signals.n; i++ {
		at := l.signals.at(i).arrive
		if at < prev || at <= s.seen || at >= s.now+int64(s.p.LinkFlightCycles) {
			return fmt.Errorf("link %d: control flit arriving at cycle %d, outside [%d, %d) or out of order",
				l.id, at, s.now, s.now+int64(s.p.LinkFlightCycles))
		}
		prev = at
	}
	return nil
}

// segments lists q's buffered flits at cycle seen, one segment per packet,
// head first; an open head whose next flits are still in flight is an
// empty segment. A nil q (the placeholder buffer of a VC port) lists none.
func (q *runQueue) segments(seen int64) []bufferSeg {
	if q == nil {
		return nil
	}
	var out []bufferSeg
	for i := 0; i < q.runs.n; i++ {
		r := q.runs.at(i)
		if r.stale {
			continue
		}
		if !r.buffered(seen) {
			break
		}
		n := r.arrived(seen)
		tail := r.tail && n == r.count()
		if k := len(out) - 1; k >= 0 && out[k].pkt == r.pkt && !out[k].tail {
			out[k].flits += n
			out[k].tail = tail
			continue
		}
		out = append(out, bufferSeg{pkt: r.pkt, flits: n, tail: tail})
	}
	return out
}

// restoreBuffer puts a checkpoint's buffered segments in front of the
// flits in flight restoreCable put on q, each as a run that has arrived by
// cycle seen. Only the head segment may be empty: an open head, which
// takes over the packet's next run when one is in flight. A nil q (the
// placeholder buffer of a VC port) takes no segments.
func (q *runQueue) restoreBuffer(segs []bufferSeg, occ, depth int, seen int64) error {
	sum := 0
	for i, sg := range segs {
		if sg.pkt == nil || sg.flits < 0 || sg.flits > depth || (sg.flits == 0 && (i > 0 || sg.tail)) {
			return fmt.Errorf("buffer segment %d (%d flits, tail %v) is not a valid run", i, sg.flits, sg.tail)
		}
		sum += sg.flits
	}
	if sum != occ || occ > depth || (q == nil && len(segs) > 0) {
		return fmt.Errorf("buffer of %d segments holding %d flits records occupancy %d (depth %d)", len(segs), sum, occ, depth)
	}
	if q == nil {
		return nil
	}
	inFlight := make([]flitRun, q.runs.n)
	for i := range inFlight {
		inFlight[i] = *q.runs.at(i)
	}
	q.runs.reset()
	q.n = 0
	for _, sg := range segs {
		if sg.flits == 0 {
			q.runs.push(flitRun{pkt: sg.pkt, arrive: seen + 1, open: true})
		}
		// The segment's flits arrived back to back up to seen, at most a
		// window to a run.
		for left := sg.flits; left > 0; {
			k := min(left, runWindow)
			left -= k
			q.runs.push(flitRun{pkt: sg.pkt, arrive: seen - int64(left+k) + 1, mask: 1<<uint(k) - 1,
				tail: sg.tail && left == 0})
		}
		q.n += sg.flits
	}
	for _, r := range inFlight {
		q.runs.push(r)
		q.n += r.count()
	}
	if q.runs.n > 1 && q.runs.front().mask == 0 && q.runs.at(1).pkt == q.runs.front().pkt {
		q.runs.pop()
		q.runs.front().open = true
	}
	return nil
}

// rescheduleArrivals puts l on the arrival wheel at every cycle a signal or
// a flit in flight reaches its far end.
func (l *link) rescheduleArrivals(s *Sim) {
	for i := 0; i < l.signals.n; i++ {
		s.scheduleSignal(l.id, l.signals.at(i).arrive)
	}
	for v := range l.lanes {
		q := &l.lanes[v]
		for i := 0; i < q.runs.n; i++ {
			r := q.runs.at(i)
			for m := r.mask; m != 0; m &= m - 1 {
				if at := r.arrive + int64(bits.TrailingZeros64(m)); at > s.seen {
					s.scheduleFlit(l.id, at)
				}
			}
		}
	}
}

// ckptOutConnected is the output state the format's first version writes
// for a stop & go output whose one lane is connected.
const ckptOutConnected = 2

// restoreOutPort maps an output port's version-1 state and connection
// slots onto its lanes: a stop & go port's connected state becomes its one
// lane's connection, to the input its last setup served. Slots only the
// other kind of port writes are refused.
func (s *Sim) restoreOutPort(op *outPort, state, nconn int) error {
	if !s.vcMode {
		if nconn != 0 || op.setupVC != 0 || op.txRR != 0 {
			return fmt.Errorf("switch %d output of link %d: lane slots on a stop & go port", op.sw, op.link)
		}
		if state == ckptOutConnected {
			if op.inp < 0 || op.inp >= len(s.inPorts) {
				return fmt.Errorf("switch %d output of link %d: connected to input %d", op.sw, op.link, op.inp)
			}
			state, nconn = outFree, 1
			op.one[0].conn = int32(op.inp)
		}
	} else if op.one[0].req != 0 {
		return fmt.Errorf("switch %d output of link %d: stop & go request mask on a VC port", op.sw, op.link)
	}
	if state != outFree && state != outSetup {
		return fmt.Errorf("switch %d output of link %d: state %d", op.sw, op.link, state)
	}
	op.state, op.nconn = state, nconn
	return nil
}

// checkPorts refuses restored port state that no run reaches: a port index
// out of range or on another switch, a connection that only one side
// records, a setup on a connected lane, a connection count that does not
// match the lanes, or a lane, request or round-robin slot beyond the
// switch's lanes and inputs. The switch pipeline indexes by all of them.
func (s *Sim) checkPorts() error {
	for i := range s.inPorts {
		ip := &s.inPorts[i]
		for v, in := range ip.lanes() {
			for _, oi := range [2]int{in.conn, in.pendingOut} {
				if oi != -1 && (oi < 0 || oi >= len(s.outPorts) || s.outPorts[oi].sw != ip.sw) {
					return fmt.Errorf("switch %d input of link %d lane %d: output %d is not on its switch", ip.sw, ip.link, v, oi)
				}
			}
			if in.conn >= 0 && int(s.outPorts[in.conn].lanes()[v].conn) != i {
				return fmt.Errorf("switch %d input of link %d lane %d: output %d does not record the connection", ip.sw, ip.link, v, in.conn)
			}
		}
	}
	for i := range s.outPorts {
		op := &s.outPorts[i]
		n, V := len(s.switches[op.sw].ins), len(op.lanes())
		input := func(g int) bool { return g >= 0 && g < len(s.inPorts) && s.inPorts[g].sw == op.sw }
		if op.rr < 0 || op.rr >= V*n || op.txRR < 0 || op.txRR >= V || op.setupVC < 0 || op.setupVC >= V {
			return fmt.Errorf("switch %d output of link %d: round-robin slot %d, lane %d or setup lane %d beyond %d lanes of %d inputs",
				op.sw, op.link, op.rr, op.txRR, op.setupVC, V, n)
		}
		if op.state == outSetup && (!input(op.inp) || op.lanes()[op.setupVC].conn != -1) {
			return fmt.Errorf("switch %d output of link %d: setup of input %d on lane %d", op.sw, op.link, op.inp, op.setupVC)
		}
		conns := 0
		for v, ol := range op.lanes() {
			if ol.req>>uint(n) != 0 {
				return fmt.Errorf("switch %d output of link %d lane %d: requests %#x beyond %d inputs", op.sw, op.link, v, ol.req, n)
			}
			if ol.conn == -1 {
				continue
			}
			if !input(int(ol.conn)) || s.inPorts[ol.conn].lanes()[v].conn != i {
				return fmt.Errorf("switch %d output of link %d lane %d: input %d does not record the connection", op.sw, op.link, v, ol.conn)
			}
			conns++
		}
		if conns != op.nconn {
			return fmt.Errorf("switch %d output of link %d: %d connected lanes, %d recorded", op.sw, op.link, conns, op.nconn)
		}
	}
	return nil
}

// state is the checkpoint after its magic: the one walk Snapshot writes and
// Restore reads.
func (s *Sim) state(c *wire.Codec, g *registry) {
	// Header.
	version := uint32(ckptVersion)
	c.U32(&version)
	if version != ckptVersion {
		c.Fail(fmt.Errorf("format version %d, this build reads %d", version, ckptVersion))
	}
	hash, err := s.configHash()
	if err != nil {
		c.Fail(err)
	}
	got := hash
	c.U64(&got)
	if got != hash {
		// Typed so callers (and the CLI) can distinguish "wrong experiment"
		// from a corrupt stream: the most common trigger is resuming with a
		// differently built routing table — e.g. an optimizer pass on one
		// side but not the other — which changes the table fingerprint
		// folded into the hash.
		c.Fail(&topology.ConfigError{Field: "Config", Value: fmt.Sprintf("hash %#x, checkpoint %#x", hash, got),
			Reason: "checkpoint was written under a different configuration (same network, table, seed, load, parameters and fault plan required)"})
	}
	wire.Int(c, &s.now)
	if c.Reading() {
		s.seen = s.now - 1
	}

	// Routes, serialized by content (deduplicated by pointer; the simulator
	// never compares route pointers, so restoring distinct objects with
	// equal content is behavior-preserving).
	g.routes.walk(c, func(r *routes.Route) {
		wire.Int(c, &r.SrcSwitch)
		wire.Int(c, &r.DstSwitch)
		wire.Int(c, &r.Hops)
		wire.Int(c, &r.AltIndex)
		wire.Int(c, &r.VC)
		wire.Slice(c, &r.Segs, func(c *wire.Codec, seg *routes.Seg) {
			wire.Int(c, &seg.ITBHost)
			wire.Slice(c, &seg.Channels, wire.Int[int])
		})
	})

	// Messages. A message's packet is a forward reference: a reader keeps
	// the index and resolves it once the packet table is decoded.
	var msgPkt []int
	g.msgs.walk(c, func(m *msgState) {
		wire.Int(c, &m.src)
		wire.Int(c, &m.dst)
		wire.Int(c, &m.payload)
		wire.Int(c, &m.genCycle)
		c.Bool(&m.measured)
		wire.Int(c, &m.seq)
		pkt := g.pkts.idx[m.pkt]
		wire.Int(c, &pkt)
		msgPkt = append(msgPkt, pkt)
		wire.Int(c, &m.attempts)
		c.Bool(&m.done)
		c.Bool(&m.lost)
	})

	// Packets.
	g.pkts.walk(c, func(p *packet) {
		wire.Int(c, &p.id)
		wire.Int(c, &p.srcHost)
		wire.Int(c, &p.dstHost)
		g.routes.ref(c, &p.route)
		wire.Int(c, &p.segIdx)
		wire.Int(c, &p.chanIdx)
		wire.Int(c, &p.wireFlits)
		wire.Int(c, &p.payload)
		c.U8(&p.vc)
		wire.Int(c, &p.genCycle)
		wire.Int(c, &p.injectCycle)
		wire.Int(c, &p.itbVisits)
		c.Bool(&p.measured)
		g.msgs.ref(c, &p.msg)
		wire.Int(c, &p.attempt)
		c.Bool(&p.dead)
		c.Bool(&p.injected)
	})
	if c.Reading() && c.Err() == nil {
		for i, m := range g.msgs.list {
			m.pkt = g.pkts.at(c, msgPkt[i])
		}
	}

	// Re-injection records.
	g.reinjs.walk(c, func(r *reinjState) {
		g.pkts.ref(c, &r.pkt)
		wire.Int(c, &r.expected)
		wire.Int(c, &r.received)
		c.Bool(&r.recvDone)
		wire.Int(c, &r.readyAt)
		c.Bool(&r.queued)
		wire.Int(c, &r.toSend)
		wire.Int(c, &r.sent)
		c.Bool(&r.released)
	})

	// Links: dynamic state only (down is re-derived from the fault set).
	// The cable's flits in flight are written one entry per flit, oldest
	// first across lanes, and its signals likewise.
	wire.Array(c, s.links, func(c *wire.Codec, l *link) {
		c.Bool(&l.stopped)
		wire.Int(c, &l.busy)
		wire.Int(c, &l.idleStopped)
		wire.Array(c, l.credits, wire.Int[int16])
		var cable []cableFlit
		if !c.Reading() {
			cable = l.cable(s.seen)
		}
		wire.Slice(c, &cable, func(c *wire.Codec, f *cableFlit) {
			g.pkts.ref(c, &f.pkt)
			c.Bool(&f.tail)
			wire.Int(c, &f.arrive)
		})
		if c.Reading() && c.Err() == nil {
			if err := l.restoreCable(s, cable); err != nil {
				c.Fail(err)
			}
		}
		wire.Ring(c, &l.signals.buf, &l.signals.head, &l.signals.n, func(c *wire.Codec, sg *signalInFlight) {
			c.Bool(&sg.stop)
			c.U8(&sg.vc)
			wire.Int(c, &sg.arrive)
		})
		if c.Reading() && c.Err() == nil {
			if err := l.checkSignals(s); err != nil {
				c.Fail(err)
			}
		}
	})

	// Switch input ports. A buffer is written as the buffered part of its
	// link's lane: occupancy, then one segment per packet, head first (a
	// nil buffer is an empty placeholder).
	buffer := func(c *wire.Codec, q *runQueue, depth int) {
		var segs []bufferSeg
		occ := 0
		if !c.Reading() {
			segs = q.segments(s.seen)
			for _, sg := range segs {
				occ += sg.flits
			}
		}
		wire.Int(c, &occ)
		wire.Slice(c, &segs, func(c *wire.Codec, sg *bufferSeg) {
			g.pkts.ref(c, &sg.pkt)
			wire.Int(c, &sg.flits)
			c.Bool(&sg.tail)
		})
		if c.Reading() && c.Err() == nil {
			if err := q.restoreBuffer(segs, occ, depth, s.seen); err != nil {
				c.Fail(err)
			}
		}
	}
	// The version-1 format gives a port its own connection, request and
	// buffer slots and then a list of VC lanes: one and vcs. A stop & go
	// port writes its one lane in its own slots and an empty list; a VC
	// port writes the empty placeholder in one (no connection, no request,
	// no stop, no buffer) and its lanes in the list.
	wire.Array(c, s.inPorts, func(c *wire.Codec, ip *inPort) {
		own := &ip.one[0]
		wire.Int(c, &own.conn)
		wire.Int(c, &own.pendingOut)
		c.Bool(&ip.lastSignalStop)
		buffer(c, own.buf, s.p.SlackBufferFlits)
		wire.Array(c, ip.vcs, func(c *wire.Codec, in *inLane) {
			wire.Int(c, &in.conn)
			wire.Int(c, &in.pendingOut)
			buffer(c, in.buf, s.p.VCBufFlits)
		})
		if c.Reading() && s.vcMode && (own.conn != -1 || own.pendingOut != -1 || ip.lastSignalStop) {
			c.Fail(fmt.Errorf("switch %d input of link %d: stop & go slots on a VC port", ip.sw, ip.link))
		}
	})

	// Switch output ports, in the same layout: a stop & go port writes its
	// one lane's request mask in its own slot, a connected lane as the
	// format's connected state, and empty lane lists; a VC port writes the
	// placeholder's zero request mask and its lanes.
	wire.Array(c, s.outPorts, func(c *wire.Codec, op *outPort) {
		state, nconn := op.state, op.nconn
		if !s.vcMode {
			nconn = 0
			if op.nconn > 0 {
				state = ckptOutConnected
			}
		}
		wire.Int(c, &state)
		wire.Int(c, &op.setupLeft)
		wire.Int(c, &op.inp)
		wire.Int(c, &op.rr)
		c.U32(&op.one[0].req)
		wire.Int(c, &nconn)
		wire.Int(c, &op.setupVC)
		wire.Int(c, &op.txRR)
		wire.Array(c, op.vcs, func(c *wire.Codec, ol *outLane) { c.U32(&ol.req) })
		wire.Array(c, op.vcs, func(c *wire.Codec, ol *outLane) { wire.Int(c, &ol.conn) })
		if c.Reading() && c.Err() == nil {
			if err := s.restoreOutPort(op, state, nconn); err != nil {
				c.Fail(err)
			}
		}
	})
	if c.Reading() && c.Err() == nil {
		if err := s.checkPorts(); err != nil {
			c.Fail(err)
		}
	}

	// Switch counters of the version-1 format: ungranted requests, setups
	// and connections. They follow from the output ports' states, so a
	// writer computes them and a reader checks them against the ports it
	// just decoded.
	wire.Array(c, s.switches, func(c *wire.Codec, sw *swtch) {
		waiting, setups, conns := sw.portCounts(s)
		want := [3]int{waiting, setups, conns}
		got := want
		for i := range got {
			wire.Int(c, &got[i])
		}
		if got != want {
			c.Fail(fmt.Errorf("switch %d counters %v do not match its ports' states %v", sw.id, got, want))
		}
	})

	// NICs.
	wire.Array(c, s.nics, func(c *wire.Codec, n *nic) {
		wire.Queue(c, &n.sendQ, &n.sendQH, g.pkts.ref)
		wire.Queue(c, &n.reinjQ, &n.reinjH, g.reinjs.ref)
		g.pkts.ref(c, &n.cur.pkt)
		wire.Int(c, &n.cur.toSend)
		wire.Int(c, &n.cur.sent)
		g.reinjs.ref(c, &n.cur.reinj)
		c.Bool(&n.active)
		g.pkts.ref(c, &n.rxPkt)
		wire.Int(c, &n.rxCount)
		wire.Int(c, &n.rxExpected)
		wire.Int(c, &n.rxStart)
		g.reinjs.ref(c, &n.rxReinj)
		wire.Array(c, n.rxVC, func(c *wire.Codec, v *vcRx) {
			g.pkts.ref(c, &v.pkt)
			wire.Int(c, &v.count)
		})
		wire.Slice(c, &n.pending, g.reinjs.ref)
		wire.Int(c, &n.poolUsed)
		wire.Int(c, &n.poolPeak)
		wire.Int(c, &n.overflows)
		c.U64(&n.rng.state)
		c.F64(&n.nextGen)
		c.Bool(&n.stopGen)
		wire.Int(c, &n.genSeq)
		c.Bool(&n.genArmed)
		wire.Int(c, &n.sinceBubble)
	})

	// Simulator-wide counters.
	wire.Int(c, &s.progress)
	wire.Int(c, &s.generatedTotal)
	wire.Int(c, &s.deliveredTotal)
	wire.Int(c, &s.outstanding)
	c.Bool(&s.measuring)
	wire.Int(c, &s.measureStart)
	wire.Int(c, &s.measITBSum)
	wire.Int(c, &s.measCount)
	wire.Int(c, &s.windowDeliveredFlits)
	wire.Int(c, &s.windowInjectedFlits)

	// Routing-table selection state of the live table, which may be a
	// swapped degraded-mode table: the round-robin cursors, then the
	// selector's state when the configuration installs one (configHash
	// tells the two cases apart). A reader decodes into the table New
	// built, and rederive moves the state onto the table it re-derives.
	wire.Array(c, s.table.RR(), func(c *wire.Codec, row *[]uint32) {
		wire.Array(c, *row, (*wire.Codec).U32)
	})
	if sel := s.table.Selector(); sel != nil {
		nested(c, sel)
	}

	// Fault engine: the serial counters and the retry timers; everything
	// else is re-derived.
	hasFE := s.fe != nil
	c.Bool(&hasFE)
	if hasFE != (s.fe != nil) {
		c.Fail(fmt.Errorf("fault state does not match the configuration"))
	}
	if fe := s.fe; fe != nil && c.Err() == nil {
		wire.Int(c, &fe.planIdx)
		wire.Int(c, &fe.tableSwapPlanIdx)
		wire.Int(c, &fe.seq)
		wire.Int(c, &fe.phase)
		wire.Int(c, &fe.phaseEnd)
		wire.Int(c, &fe.eventCycle)
		wire.Int(c, &fe.detectAt)
		c.Bool(&fe.needPurge)
		wire.Int(c, &fe.drops.InFlight)
		wire.Int(c, &fe.drops.DeadSwitch)
		wire.Int(c, &fe.drops.DeadOutput)
		wire.Int(c, &fe.drops.NoRoute)
		wire.Int(c, &fe.retransmits)
		wire.Int(c, &fe.lost)
		wire.Int(c, &fe.droppedPackets)
		wire.Int(c, &fe.reconfigFails)
		reconfigErr := []byte(fe.reconfigErr)
		c.Blob(&reconfigErr)
		if c.Reading() {
			fe.reconfigErr = string(reconfigErr)
		}
		// A reader leaves Reconfigs nil when empty, as Result.Reconfigs is.
		wire.Slice(c, &fe.reconfigs, func(c *wire.Codec, rc *ReconfigStat) {
			wire.Int(c, &rc.EventCycle)
			wire.Int(c, &rc.DetectCycle)
			wire.Int(c, &rc.SwapCycle)
			wire.Int(c, &rc.Probes)
			wire.Int(c, &rc.LostHosts)
		})
		// Timers in heap-array order: the array is a valid heap and the
		// (at, seq) keys give one total order, so a direct copy restores
		// identical pop behavior.
		wire.Slice(c, &fe.timers, func(c *wire.Codec, t *timer) {
			wire.Int(c, &t.at)
			wire.Int(c, &t.key)
			g.msgs.ref(c, &t.m)
		})
	}

	// Generation timers in heap-array order; rederive re-pushes them.
	wire.Slice(c, &s.genTimers, func(c *wire.Codec, t *timer) {
		wire.Int(c, &t.at)
		wire.Int(c, &t.key)
		if t.key < 0 || t.key >= int64(s.numHosts) {
			c.Fail(fmt.Errorf("generation timer for host %d out of range", t.key))
		}
	})

	// Measured-latency state: the histograms plus the exact integer cycle
	// totals finalize sets their float sums from.
	nested(c, s.latHist)
	nested(c, s.netLatHist)
	wire.Int(c, &s.latCycles)
	wire.Int(c, &s.netLatCycles)

	// Windowed metrics collector.
	hasMx := s.mx != nil
	c.Bool(&hasMx)
	if hasMx != (s.mx != nil) {
		c.Fail(fmt.Errorf("metrics state does not match the configuration"))
	}
	if s.mx != nil && c.Err() == nil {
		nested(c, s.mx)
	}
}

// Snapshot serializes the complete mid-run state of the simulator into a
// self-describing binary checkpoint. It must be called at a cycle boundary
// (between step calls — the CheckpointEvery hook and external callers
// between Run invocations both qualify). The state includes the routing
// selector's; a Tracer only observes, and a restored run's tracer sees the
// events from the restore cycle on. Restore the result with Restore or
// ResumeContext under the same Config.
func (s *Sim) Snapshot() ([]byte, error) {
	// Parked components owe their skipped cycles to the stall counters the
	// walk writes; settling them also empties the parking state, which the
	// checkpoint leaves out.
	s.settleParked(s.now - 1)
	c := wire.NewWriter(append(make([]byte, 0, 1<<16), ckptMagic...), ckptLenSize)
	s.state(c, s.registries())
	if err := c.Err(); err != nil {
		return nil, err
	}
	return c.Bytes(), nil
}

// Restore builds a fresh Sim from cfg and overwrites its dynamic state with
// a checkpoint written by Snapshot. The configuration must describe the same
// experiment (a header hash over every result-relevant field is verified);
// the step loop (Config.denseStep) may differ, and the restored Sim then
// continues byte-identically under the other step loop.
// Restoring a checkpoint taken mid-reconfiguration (or after a table swap)
// requires cfg.Reconfigurer, which re-derives the swapped tables
// deterministically instead of the checkpoint carrying them.
func Restore(cfg Config, data []byte) (*Sim, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(data, []byte(ckptMagic)) {
		return nil, fmt.Errorf("netsim: not a checkpoint (bad magic)")
	}
	c := wire.NewReader(data[len(ckptMagic):], ckptLenSize)
	s.state(c, &registry{})
	if err := c.Finish(); err != nil {
		return nil, fmt.Errorf("netsim: checkpoint: %w", err)
	}
	if err := s.rederive(); err != nil {
		return nil, err
	}
	return s, nil
}

// rederive rebuilds, after a read walk, the state a checkpoint leaves out:
// the fault set and down flags, the swapped and pending routing tables, the
// generation heap, the fault engine's next wake-up, the port masks, the
// arrival wheel and the active sets. Nothing is parked: Snapshot woke every parked component, and
// nicNeedsTick puts every injecting NIC in the tick set.
func (s *Sim) rederive() error {
	if fe := s.fe; fe != nil {
		if fe.planIdx < 0 || fe.planIdx > len(fe.plan) ||
			fe.tableSwapPlanIdx < -1 || fe.tableSwapPlanIdx > len(fe.plan) {
			return fmt.Errorf("netsim: checkpoint plan position out of range")
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
				return fmt.Errorf("netsim: checkpoint was taken after a table swap; restoring requires Config.Reconfigurer")
			}
			swapSet := faults.NewSet(s.net)
			for _, e := range fe.plan[:fe.tableSwapPlanIdx] {
				swapSet.Apply(e)
			}
			rc, err := fe.rec.Recompute(swapSet)
			if err != nil {
				return fmt.Errorf("netsim: re-deriving swapped routing tables: %w", err)
			}
			s.table = s.table.Rebase(rc.Table)
		}
		if fe.phase == phaseProbing || fe.phase == phaseDraining {
			if fe.rec == nil {
				return fmt.Errorf("netsim: checkpoint was taken mid-reconfiguration; restoring requires Config.Reconfigurer")
			}
			rc, err := fe.rec.Recompute(fe.set.Clone())
			if err != nil {
				return fmt.Errorf("netsim: re-deriving pending reconfiguration: %w", err)
			}
			fe.pendingRc = rc
		}
		fe.recomputeWake()
	}

	// The generation timers were read in heap-array order; pushing them in
	// that order rebuilds a valid heap whatever the stored layout.
	timers := s.genTimers
	s.genTimers = make(timerHeap, 0, len(timers))
	for _, t := range timers {
		s.genTimers.push(t)
	}

	// Re-derive the port masks from the output ports' states.
	for i := range s.switches {
		s.switches[i].rederiveMasks(s)
	}

	// Re-derive the arrival wheel by scheduling every signal and every flit
	// still in flight, a superset of the arrivals that act (the extra
	// visits do nothing), and the active sets from each component's own
	// activity predicate — the same predicates the phase loops use for removal, so
	// membership is exactly what the uninterrupted run would carry into the
	// next cycle (stale bits it might carry are spurious members whose visit
	// is a no-op; the one observable side effect of such a visit, arming a
	// sleeping NIC's generation timer, is reproduced by the armGen
	// compensation below).
	clear(s.nicSet.words) // New starts every NIC awake
	for i := range s.links {
		s.links[i].rescheduleArrivals(s)
	}
	for i := range s.switches {
		sw := &s.switches[i]
		if sw.setupOuts|sw.reqOuts != 0 {
			s.routingSet.add(i)
		}
		if sw.connOuts != 0 {
			s.transferSet.add(i)
		}
	}
	for h := range s.nics {
		n := &s.nics[h]
		if s.nicNeedsTick(n) {
			s.nicSet.add(h)
		} else {
			// A NIC the uninterrupted run still carried as a stale set
			// member would be visited once more, do nothing, and arm its
			// generation timer on removal; reproduce that arming here.
			// armGen no-ops when the timer is already armed (genArmed),
			// generation is stopped, or the load is zero.
			s.armGen(n)
		}
	}
	return nil
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
		"SourceQueueCap", "SourceBubblePeriod", "VCBufFlits", "WatchdogCycles",
		"DetectionCycles", "ProbeCycles", "DrainCycles", "RetryTimeoutCycles", "RetryLimit"},
	"netsim.Sim": {"now", "progress", "table", "fe", "links", "inPorts", "outPorts",
		"switches", "nics", "genTimers", "generatedTotal", "deliveredTotal", "outstanding",
		"measuring", "measureStart", "measITBSum", "measCount", "latHist", "netLatHist",
		"latCycles", "netLatCycles", "mx", "windowDeliveredFlits", "windowInjectedFlits"},
	"netsim.link": {"stopped", "credits", "lanes", "signals", "busy",
		"idleStopped"},
	"netsim.signalInFlight": {"stop", "vc", "arrive"},
	"netsim.inPort":         {"one", "vcs", "lastSignalStop"},
	"netsim.inLane":         {"buf", "conn", "pendingOut"},
	"netsim.outPort":        {"state", "setupLeft", "inp", "setupVC", "rr", "one", "vcs", "nconn", "txRR"},
	"netsim.outLane":        {"req", "conn"},
	"netsim.nic": {"sendQ", "sendQH", "reinjQ", "reinjH", "cur", "active", "rxPkt",
		"rxCount", "rxExpected", "rxStart", "rxReinj", "rxVC", "pending", "poolUsed",
		"poolPeak", "overflows", "rng", "nextGen", "stopGen", "genSeq", "genArmed",
		"sinceBubble"},
	"netsim.injection":  {"pkt", "toSend", "sent", "reinj"},
	"netsim.reinjState": {"pkt", "expected", "received", "recvDone", "readyAt", "queued", "toSend", "sent", "released"},
	"netsim.packet": {"id", "srcHost", "dstHost", "route", "segIdx", "chanIdx",
		"wireFlits", "payload", "vc", "genCycle", "injectCycle", "itbVisits", "measured",
		"msg", "attempt", "dead", "injected"},
	"netsim.msgState": {"src", "dst", "payload", "genCycle", "measured", "seq", "pkt", "attempts", "done", "lost"},
	"netsim.timer":    {"at", "key", "m"},
	// A lane is written as its flits in flight (cableFlit, one per flit)
	// and its receiver's buffer (bufferSeg, one per packet).
	"netsim.runQueue":  {"runs"},
	"netsim.flitRun":   {"pkt", "arrive", "mask", "tail"},
	"netsim.cableFlit": {"pkt", "tail", "arrive"},
	"netsim.bufferSeg": {"pkt", "flits", "tail"},
	"netsim.vcRx":      {"pkt", "count"},
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
	"metrics.Histogram":       {"counts", "count", "sum", "min", "max"},
	"routes.Table":            {"rr", "sel"},
	"routes.Route":            {"SrcSwitch", "DstSwitch", "Segs", "Hops", "AltIndex", "VC"},
	"routes.Seg":              {"Channels", "ITBHost"},
	"routes.AdaptiveConfig":   {"Alpha", "Explore"},
	"routes.randomSelector":   {"state"},
	"routes.adaptiveSelector": {"cfg", "state"},
	"routes.adaptState":       {"ewma", "tries"},

	// A signal ring writes its live entries oldest first (wire.Ring); a
	// lane's run ring is written through cableFlit and bufferSeg.
	"netsim.ring[itbsim/internal/netsim.flitRun]":        {"buf", "head", "n"},
	"netsim.ring[itbsim/internal/netsim.signalInFlight]": {"buf", "head", "n"},
}

var checkpointExempt = map[string][]string{
	// Functions, callbacks, and execution-mechanism knobs: not part of the
	// experiment's identity (Dest is the caller's obligation to repeat).
	"netsim.Config": {"Dest", "Tracer", "Reconfigurer", "denseStep",
		"CheckpointEvery", "CheckpointSink"},
	// Rebuilt from the configuration by New. Active sets and the arrival
	// wheel are re-derived from component state, and seen is now-1 at every
	// cycle boundary; the dead-route list is empty at every cycle boundary;
	// the packet arena is an allocator, not state.
	// Parking and commitment state (parkedNICs, parkTimers and the
	// per-component fields below) is settled and emptied before every walk,
	// so a restored run starts with nothing parked or committed.
	// lateMoves and lastLateMove only offset the watchdog, which a resumed
	// run starts afresh; the work counters are benchmark instrumentation
	// outside the Result.
	"netsim.Sim": {"cfg", "p", "net", "outPortOfLink", "seen", "wheel", "wheelMask",
		"actLimit", "routingSet", "transferSet", "nicSet", "parkedNICs", "parkTimers",
		"dense", "commits", "lateMoves", "lastLateMove", "outVisits", "outFlits",
		"deadRouteReqs", "pktChunk", "pktUsed", "numChannels", "numHosts",
		"vcMode", "numVCs", "laneFlits", "genIntervalCycles"},
	// The flit count follows from the runs, which store only holds. An open
	// head comes back as an empty buffer segment and stale runs as flits of
	// dead packets.
	"netsim.runQueue": {"n", "store"},
	"netsim.flitRun":  {"open", "stale"},
	// Build-time wiring; down is re-derived from the fault set and the
	// switch port masks from the output ports' states.
	"netsim.link":    {"id", "recvPort", "recvNIC", "down"},
	"netsim.inPort":  {"sw", "link", "localIdx"},
	"netsim.outPort": {"sw", "link", "localIdx", "parkedAt", "commitAt", "commitMask"},
	"netsim.swtch":   {"id", "ins", "outs", "setupOuts", "connOuts", "fullOuts", "reqOuts", "sleepOuts"},
	"netsim.nic":     {"host", "upLink", "parkedAt", "parkedFull", "commitAt", "commitMask"},
	"netsim.bitset":  {"words"},
	// plan/rec come from the configuration; set/down/pendingRc/nextWake are
	// re-derived on restore.
	"netsim.faultEngine": {"plan", "set", "rec", "down", "pendingRc", "nextWake"},
	// Net/Scheme/Alts/NumVCs are rebuilt by table construction and pinned
	// by the config hash — which folds in Table.Fingerprint(), so the full
	// routing content (optimized, degraded, or static) must match, not
	// just the scheme.
	"routes.Table": {"Net", "Scheme", "Alts", "NumVCs"},
	// The seed is configuration: it fixes the state a fresh Clone starts
	// from, which the config hash folds in.
	"routes.randomSelector": {"seed"},
}
