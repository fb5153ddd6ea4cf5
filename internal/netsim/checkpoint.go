package netsim

import (
	"bytes"
	"context"
	"encoding"
	"errors"
	"fmt"
	"hash/fnv"
	"math/bits"

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

// ErrCheckpointVersion is the error Restore wraps when a checkpoint was
// written in another format version. Checkpoints are only readable by the
// build that wrote them, so a caller holding one re-runs from scratch.
var ErrCheckpointVersion = errors.New("written in another format version")

const (
	ckptMagic   = "ITBCKPT\x00"
	ckptVersion = 2
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
	w := wire.NewWriter(nil)
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
// link lanes, then NICs) registering every reachable object.
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
		for v := range s.links[i].lanes {
			q := &s.links[i].lanes[v]
			for k := 0; k < q.runs.n; k++ {
				pkt(q.runs.at(k).pkt)
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

// checkLanes recounts the flits of l's lanes after a read walk and
// refuses runs no lane of the simulator holds: a run without a packet or
// of another lane's packet, a non-empty run whose first flit is missing,
// an empty or open run anywhere but at the head of the lane's live (not
// stale) runs, arrival cycles that do not strictly increase along the lane
// or that reach past the flight after the snapshot, [now, now +
// LinkFlightCycles), and a switch input lane holding more arrived flits
// than its buffer. The step loops index and stamp by all of them.
func (l *link) checkLanes(s *Sim) error {
	limit := s.now + int64(s.p.LinkFlightCycles)
	for v := range l.lanes {
		q := &l.lanes[v]
		q.n = 0
		prev := int64(-1)
		head, arrived := true, 0
		for i := 0; i < q.runs.n; i++ {
			r := q.runs.at(i)
			var err error
			switch behind := r.stale || !head; {
			case r.pkt == nil || (s.vcMode && int(r.pkt.vc) != v):
				err = fmt.Errorf("run %d holds no packet of the lane", i)
			case r.mask&1 == 0 && r.mask != 0:
				err = fmt.Errorf("run %d arrival mask %#x misses its first flit", i, r.mask)
			case r.mask == 0 && behind:
				err = fmt.Errorf("empty run %d behind the lane's head", i)
			case r.open && behind:
				err = fmt.Errorf("open run %d behind the lane's head", i)
			case r.mask != 0 && r.arrive <= prev:
				err = fmt.Errorf("run %d arrives at cycle %d, not after the flit at %d", i, r.arrive, prev)
			case r.mask != 0 && (r.arrive >= limit || r.last() >= limit):
				err = fmt.Errorf("run %d arrives until cycle %d, past the flight [%d, %d)", i, r.last(), s.now, limit)
			}
			if err != nil {
				return fmt.Errorf("link %d lane %d: %w", l.id, v, err)
			}
			head = head && r.stale
			if r.mask != 0 {
				prev = r.last()
				q.n += r.count()
			}
			if !r.stale {
				arrived += r.arrived(s.seen)
			}
		}
		if l.recvPort >= 0 && arrived > s.laneFlits {
			return fmt.Errorf("link %d lane %d: %d arrived flits overfill a buffer of %d", l.id, v, arrived, s.laneFlits)
		}
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
		c.Fail(fmt.Errorf("%w: format version %d, this build reads %d", ErrCheckpointVersion, version, ckptVersion))
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
	// Each lane is written as its ring holds it, flits in flight and
	// buffered in one queue of runs, and the signals likewise.
	wire.Array(c, s.links, func(c *wire.Codec, l *link) {
		c.Bool(&l.stopped)
		wire.Int(c, &l.busy)
		wire.Int(c, &l.idleStopped)
		wire.Array(c, l.credits, wire.Int[int16])
		wire.Array(c, l.lanes, func(c *wire.Codec, q *runQueue) {
			wire.Ring(c, &q.runs.buf, &q.runs.head, &q.runs.n, func(c *wire.Codec, r *flitRun) {
				g.pkts.ref(c, &r.pkt)
				wire.Int(c, &r.arrive)
				c.U64(&r.mask)
				c.Bool(&r.tail)
				c.Bool(&r.open)
				c.Bool(&r.stale)
			})
		})
		wire.Ring(c, &l.signals.buf, &l.signals.head, &l.signals.n, func(c *wire.Codec, sg *signalInFlight) {
			c.Bool(&sg.stop)
			c.U8(&sg.vc)
			wire.Int(c, &sg.arrive)
		})
		if c.Reading() && c.Err() == nil {
			if err := l.checkLanes(s); err != nil {
				c.Fail(err)
			} else if err := l.checkSignals(s); err != nil {
				c.Fail(err)
			}
		}
	})

	// Switch ports, in one layout for both flow-control models: a port's
	// own state, then its lanes (one under stop & go).
	wire.Array(c, s.inPorts, func(c *wire.Codec, ip *inPort) {
		c.Bool(&ip.lastSignalStop)
		wire.Array(c, ip.lanes(), func(c *wire.Codec, in *inLane) {
			wire.Int(c, &in.conn)
			wire.Int(c, &in.pendingOut)
		})
	})
	wire.Array(c, s.outPorts, func(c *wire.Codec, op *outPort) {
		wire.Int(c, &op.state)
		wire.Int(c, &op.setupLeft)
		wire.Int(c, &op.inp)
		wire.Int(c, &op.setupVC)
		wire.Int(c, &op.rr)
		wire.Int(c, &op.txRR)
		wire.Int(c, &op.nconn)
		wire.Array(c, op.lanes(), func(c *wire.Codec, ol *outLane) {
			c.U32(&ol.req)
			wire.Int(c, &ol.conn)
		})
		if c.Reading() && op.state != outFree && op.state != outSetup {
			c.Fail(fmt.Errorf("switch %d output of link %d: state %d", op.sw, op.link, op.state))
		}
	})
	if c.Reading() && c.Err() == nil {
		if err := s.checkPorts(); err != nil {
			c.Fail(err)
		}
	}

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
	c := wire.NewWriter(append(make([]byte, 0, 1<<16), ckptMagic...))
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
	c := wire.NewReader(data[len(ckptMagic):])
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
	"netsim.inLane":         {"conn", "pendingOut"},
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
	"netsim.runQueue": {"runs"},
	"netsim.flitRun":  {"pkt", "arrive", "mask", "tail", "open", "stale"},
	"netsim.vcRx":     {"pkt", "count"},
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

	// A ring writes its live entries oldest first (wire.Ring).
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
		"nicVisits", "nicFlits", "rxVisits", "rxFlits",
		"deadRouteReqs", "pktChunk", "pktUsed", "numChannels", "numHosts",
		"vcMode", "numVCs", "laneFlits", "genIntervalCycles"},
	// The flit count follows from the runs, which store only holds.
	"netsim.runQueue": {"n", "store"},
	// Build-time wiring (an input lane's buffer is its link's lane, which
	// the link writes); down is re-derived from the fault set and the
	// switch port masks from the output ports' states.
	"netsim.link":    {"id", "recvPort", "recvNIC", "down"},
	"netsim.inPort":  {"sw", "link", "localIdx"},
	"netsim.inLane":  {"buf"},
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
