package netsim

import (
	"fmt"

	"itbsim/internal/faults"
)

// Reconfigurer recomputes routing tables for a fault state. It is the
// simulator's view of faults.Controller; the indirection keeps netsim
// testable with canned tables and lets harnesses memoize across runs.
type Reconfigurer interface {
	Recompute(set *faults.Set) (*faults.Reconfiguration, error)
}

// DropReason classifies why a packet was destroyed. A packet is counted
// under exactly one reason, even when a single event batch makes several
// apply at once (a wormhole stretched across a dying switch whose next-hop
// link died in the same cycle): event-time kills classify dead-switch
// custody first, then link traffic, so the precedence is
// DeadSwitch > InFlight > DeadOutput. NoRoute only arises at dispatch or
// table-swap time, before the packet has entered the network.
type DropReason int

const (
	// DropInFlight: the packet had flits on a link (or was streaming onto
	// one) at the moment that link failed.
	DropInFlight DropReason = iota
	// DropDeadSwitch: the packet was buffered inside, or held by a NIC
	// of, a switch that failed. Takes precedence over the other event-time
	// reasons when one event batch makes several apply.
	DropDeadSwitch
	// DropDeadOutput: the packet reached a switch whose requested output
	// link was out of service (its source route crosses the fault).
	DropDeadOutput
	// DropNoRoute: the source (or the table swap) found no surviving
	// route for the packet's destination.
	DropNoRoute

	numDropReasons
)

// String names the drop reason for reports and logs.
func (r DropReason) String() string {
	switch r {
	case DropInFlight:
		return "in-flight"
	case DropDeadSwitch:
		return "dead-switch"
	case DropDeadOutput:
		return "dead-output"
	case DropNoRoute:
		return "no-route"
	default:
		return fmt.Sprintf("DropReason(%d)", int(r))
	}
}

// DropStats counts destroyed packets by reason.
type DropStats struct {
	InFlight   int64 // flits on a failing link
	DeadSwitch int64 // buffered at a failing switch
	DeadOutput int64 // route crosses a dead link
	NoRoute    int64 // no surviving route at dispatch or swap
}

// Total sums all reasons; it equals Result.DroppedPackets.
func (d DropStats) Total() int64 {
	return d.InFlight + d.DeadSwitch + d.DeadOutput + d.NoRoute
}

// ReconfigStat records one completed reconfiguration pass.
type ReconfigStat struct {
	// EventCycle is when the triggering topology change took effect,
	// DetectCycle when the controller noticed it, SwapCycle when the new
	// tables went live (Detect + Probes*ProbeCycles + DrainCycles).
	EventCycle  int64
	DetectCycle int64
	SwapCycle   int64
	// Probes is the mapping pass cost in probe packets.
	Probes int
	// LostHosts is how many hosts the degraded topology cannot reach.
	LostHosts int
}

// msgState is the source host's view of one message: it survives across
// transmission attempts, where a packet is a single attempt.
type msgState struct {
	src, dst int
	payload  int
	genCycle int64
	measured bool
	seq      int64 // creation order; tie-breaks the retry heap

	pkt      *packet // current attempt (nil when dropped before dispatch)
	attempts int     // transmission attempts consumed
	done     bool    // delivered
	lost     bool    // abandoned after RetryLimit
}

// retryTimer is one pending delivery-timeout check.
type retryTimer struct {
	at  int64
	seq int64
	m   *msgState
}

// retryHeap is a binary min-heap ordered by (at, seq) — fully deterministic
// regardless of insertion order.
type retryHeap []retryTimer

func (h retryHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *retryHeap) push(t retryTimer) {
	*h = append(*h, t)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !(*h).less(i, p) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *retryHeap) pop() retryTimer {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = retryTimer{}
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && (*h).less(l, small) {
			small = l
		}
		if r < n && (*h).less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}

// Reconfiguration phases.
const (
	phaseIdle = iota
	phaseDetecting
	phaseProbing
	phaseDraining
)

// faultEngine drives the fault plan, the retry timers, and the
// reconfiguration state machine. It costs one int64 comparison per cycle
// while asleep; everything else happens on wake-ups.
type faultEngine struct {
	plan    []faults.Event
	planIdx int
	set     *faults.Set
	rec     Reconfigurer

	down []bool // by sim link ID, derived from set

	timers retryHeap
	seq    int64

	// Reconfiguration state machine.
	phase      int
	phaseEnd   int64
	eventCycle int64 // cycle of the change being reacted to
	detectAt   int64
	pendingRc  *faults.Reconfiguration

	// tableSwapPlanIdx is the plan position (planIdx) at the time of the
	// last completed table swap, or -1 while the build-time table is still
	// live. Checkpoint restore re-derives the swapped table by replaying
	// plan[:tableSwapPlanIdx] through the (memoized, deterministic)
	// Reconfigurer instead of serializing route alternatives.
	tableSwapPlanIdx int

	nextWake int64

	// needPurge requests a purgeDeadState sweep at the end of the current
	// cycle. Routing-time kills can happen while a packet's body still
	// stretches back through upstream switches and its source NIC; those
	// hold connections that would otherwise wait forever for a tail flit
	// the dead-packet guards discard.
	needPurge bool

	// Accounting, folded into Result by finalize.
	drops          DropStats
	retransmits    int64
	lost           int64
	reconfigs      []ReconfigStat
	reconfigFails  int64
	reconfigErr    string
	droppedPackets int64
}

const maxWake = int64(1<<63 - 1)

func newFaultEngine(s *Sim, plan *faults.Plan, rec Reconfigurer) *faultEngine {
	fe := &faultEngine{
		plan:             plan.Sorted(),
		set:              faults.NewSet(s.net),
		rec:              rec,
		down:             make([]bool, len(s.links)),
		tableSwapPlanIdx: -1,
	}
	fe.recomputeWake()
	return fe
}

func (fe *faultEngine) recomputeWake() {
	w := maxWake
	if fe.planIdx < len(fe.plan) && fe.plan[fe.planIdx].Cycle < w {
		w = fe.plan[fe.planIdx].Cycle
	}
	if fe.phase != phaseIdle && fe.phaseEnd < w {
		w = fe.phaseEnd
	}
	if len(fe.timers) > 0 && fe.timers[0].at < w {
		w = fe.timers[0].at
	}
	fe.nextWake = w
}

// wake is called from step when s.now reaches nextWake: apply due plan
// events, advance the reconfiguration machine, and fire due retry timers.
func (fe *faultEngine) wake(s *Sim) {
	if fe.planIdx < len(fe.plan) && fe.plan[fe.planIdx].Cycle <= s.now {
		fe.applyDueEvents(s)
	}
	if fe.phase != phaseIdle && s.now >= fe.phaseEnd {
		fe.advanceReconfig(s)
	}
	for len(fe.timers) > 0 && fe.timers[0].at <= s.now {
		t := fe.timers.pop()
		fe.fireTimer(s, t.m)
	}
	fe.recomputeWake()
}

// applyDueEvents folds every event scheduled for the current cycle into the
// fault state, kills the traffic caught on the failing elements, and
// (re)starts the reconfiguration state machine.
func (fe *faultEngine) applyDueEvents(s *Sim) {
	changed := false
	for fe.planIdx < len(fe.plan) && fe.plan[fe.planIdx].Cycle <= s.now {
		fe.set.Apply(fe.plan[fe.planIdx])
		fe.planIdx++
		changed = true
	}
	if !changed {
		return
	}
	s.progress++

	oldDown := fe.down
	fe.down = make([]bool, len(s.links))
	fe.recomputeDown(s)

	// Kill order fixes the drop-reason precedence (DeadSwitch > InFlight >
	// DeadOutput): packets in a dying switch's custody — buffered in its
	// input ports or held by its hosts' NICs — are classified first, so a
	// packet whose header sits in a dead switch while its route's next hop
	// is also dead counts once, as DropDeadSwitch, no matter the link-ID
	// order the cable sweep below visits.
	for sw, dead := range fe.set.Switches {
		if !dead {
			continue
		}
		for _, ipIdx := range s.switches[sw].ins {
			ip := &s.inPorts[ipIdx]
			for _, seg := range ip.buf.segs[ip.buf.head:] {
				if seg.pkt != nil && !seg.pkt.dead {
					fe.kill(s, seg.pkt, DropDeadSwitch)
				}
			}
		}
		for _, h := range s.net.HostsAt(sw) {
			fe.killNICCustody(s, &s.nics[h])
		}
	}
	for l := range fe.down {
		switch {
		case fe.down[l] && !oldDown[l]:
			fe.killOnLink(s, l)
			s.links[l].down = true
		case !fe.down[l] && oldDown[l]:
			fe.reviveLink(s, l)
		}
	}
	s.purgeDeadState()

	// Any change (fault or repair) restarts detection: the controller
	// reacts to the newest topology.
	fe.phase = phaseDetecting
	fe.eventCycle = s.now
	fe.phaseEnd = s.now + s.p.DetectionCycles
	fe.pendingRc = nil
}

// recomputeDown derives per-sim-link service state from the fault set.
func (fe *faultEngine) recomputeDown(s *Sim) {
	for c := 0; c < s.numChannels; c++ {
		fe.down[c] = fe.set.LinkDown(s.net, c)
	}
	for h := 0; h < s.numHosts; h++ {
		dead := fe.set.Switches[s.net.SwitchOf(h)]
		fe.down[s.hostUpLink(h)] = dead
		fe.down[s.hostDownLink(h)] = dead
	}
}

// killOnLink destroys the traffic caught on a newly failed link: flits in
// flight on the cable, the packet mid-stream into it, and the packets
// queued at its output requesting it.
func (fe *faultEngine) killOnLink(s *Sim, lid int) {
	l := &s.links[lid]
	for _, f := range l.flits[l.flHead:] {
		if f.pkt != nil && !f.pkt.dead {
			fe.kill(s, f.pkt, DropInFlight)
		}
	}
	l.flits = l.flits[:0]
	l.flHead = 0
	l.signals = l.signals[:0]
	l.sgHead = 0
	l.stopped = false

	if oi := s.outPortOfLink[lid]; oi >= 0 {
		op := &s.outPorts[oi]
		if op.state != outFree {
			if hs := s.inPorts[op.inp].buf.headSeg(); hs != nil && !hs.pkt.dead {
				fe.kill(s, hs.pkt, DropInFlight)
			}
		}
		// Inputs whose head packet is waiting for this output are
		// committed to the dead link by their source route.
		if op.reqMask != 0 {
			sw := &s.switches[op.sw]
			for idx := 0; idx < len(sw.ins); idx++ {
				if op.reqMask&(1<<uint(idx)) == 0 {
					continue
				}
				if hs := s.inPorts[sw.ins[idx]].buf.headSeg(); hs != nil && !hs.pkt.dead {
					fe.kill(s, hs.pkt, DropDeadOutput)
				}
			}
		}
	}
	// A failing host up-link (switch death) cuts the NIC's injection.
	if lid >= s.numChannels && lid < s.numChannels+s.numHosts {
		n := &s.nics[lid-s.numChannels]
		if n.active && !n.cur.pkt.dead {
			fe.kill(s, n.cur.pkt, DropInFlight)
		}
	}
}

// reviveLink returns a repaired link to service, resynchronizing the
// stop & go state the dead cable lost.
func (fe *faultEngine) reviveLink(s *Sim, lid int) {
	l := &s.links[lid]
	l.down = false
	l.stopped = false
	if l.recvPort >= 0 {
		l.stopped = s.inPorts[l.recvPort].lastSignalStop
	}
	// A repaired host up-link unblocks its NIC's injection: packets may
	// have queued (and the NIC gone to sleep) while the link was out.
	if lid >= s.numChannels && lid < s.numChannels+s.numHosts {
		s.wakeNIC(lid - s.numChannels)
	}
}

// killNICCustody destroys every in-transit packet held by a NIC on a dying
// switch (being received, awaiting DMA, or queued for re-injection).
func (fe *faultEngine) killNICCustody(s *Sim, n *nic) {
	if n.rxPkt != nil && !n.rxPkt.dead {
		fe.kill(s, n.rxPkt, DropDeadSwitch)
	}
	for _, r := range n.pending {
		if !r.pkt.dead {
			fe.kill(s, r.pkt, DropDeadSwitch)
		}
	}
	for _, r := range n.reinjQ[n.reinjH:] {
		if r != nil && !r.pkt.dead {
			fe.kill(s, r.pkt, DropDeadSwitch)
		}
	}
	if n.active && !n.cur.pkt.dead {
		fe.kill(s, n.cur.pkt, DropDeadSwitch)
	}
}

// kill marks one packet dead and accounts the drop. State referencing the
// packet is cleaned up by purgeDeadState (event-time mass kills) or locally
// by the caller (routing-time kills); flits still in flight for it are
// discarded on arrival. kill runs only at cycle edges (event application at
// cycle start, the end-of-cycle dead-route drain, retry timers): phase code
// defers routing-time kills via Sim.deadRouteReqs.
func (fe *faultEngine) kill(s *Sim, p *packet, reason DropReason) {
	if p.dead {
		return
	}
	p.dead = true
	fe.droppedPackets++
	//lint:ignore exhaustive numDropReasons is the count sentinel, never a live reason; droppedPackets above counts every kill
	switch reason {
	case DropInFlight:
		fe.drops.InFlight++
	case DropDeadSwitch:
		fe.drops.DeadSwitch++
	case DropDeadOutput:
		fe.drops.DeadOutput++
	case DropNoRoute:
		fe.drops.NoRoute++
	}
	if s.cfg.Tracer != nil {
		s.trace(Event{Kind: EvDrop, Packet: p.id, Host: p.srcHost, Link: int(reason)})
	}
	s.progress++
	fe.needPurge = true
}

// advanceReconfig moves the reconfiguration state machine one phase.
func (fe *faultEngine) advanceReconfig(s *Sim) {
	switch fe.phase {
	case phaseDetecting:
		fe.detectAt = s.now
		if fe.rec == nil {
			fe.phase = phaseIdle
			return
		}
		rc, err := fe.rec.Recompute(fe.set.Clone())
		if err != nil {
			// No live vantage point (e.g. the mapper's switch died) or
			// the degraded graph defeated the route builder: keep the
			// stale tables and let retries burn out.
			fe.reconfigFails++
			if fe.reconfigErr == "" {
				fe.reconfigErr = err.Error()
			}
			fe.phase = phaseIdle
			return
		}
		fe.pendingRc = rc
		fe.phase = phaseProbing
		fe.phaseEnd = s.now + int64(rc.Probes)*s.p.ProbeCycles
	case phaseProbing:
		fe.phase = phaseDraining
		fe.phaseEnd = s.now + s.p.DrainCycles
	case phaseDraining:
		fe.swapTables(s)
		fe.phase = phaseIdle
	}
}

// swapTables atomically installs the recomputed routing tables on every
// NIC: the mutable table is replaced and queued (not yet injected) packets
// are re-routed; packets already in the network finish on their old source
// route or die trying.
func (fe *faultEngine) swapTables(s *Sim) {
	rc := fe.pendingRc
	fe.pendingRc = nil
	fe.tableSwapPlanIdx = fe.planIdx
	s.table = rc.Table.Clone() // private round-robin state for this sim
	fe.reconfigs = append(fe.reconfigs, ReconfigStat{
		EventCycle:  fe.eventCycle,
		DetectCycle: fe.detectAt,
		SwapCycle:   s.now,
		Probes:      rc.Probes,
		LostHosts:   len(rc.LostHosts),
	})
	s.progress++
	if s.cfg.Tracer != nil {
		s.trace(Event{Kind: EvReconfig, Switch: len(fe.reconfigs)})
	}
	for h := range s.nics {
		n := &s.nics[h]
		purge := false
		for _, p := range n.sendQ[n.sendQH:] {
			if p == nil || p.dead {
				continue
			}
			r := s.table.Lookup(p.srcHost, p.dstHost)
			if r == nil {
				fe.kill(s, p, DropNoRoute)
				purge = true
				continue
			}
			p.route = r
			p.segIdx, p.chanIdx = 0, 0
			p.wireFlits = p.payload + headerFlits(r)
		}
		if purge {
			n.purgeSendQ()
		}
	}
}

// armTimer schedules the next delivery-timeout check for a message, with
// exponential backoff per attempt, capped under the deadlock watchdog.
func (fe *faultEngine) armTimer(s *Sim, m *msgState) {
	interval := s.p.RetryTimeoutCycles << uint(m.attempts-1)
	if max := s.p.WatchdogCycles / 2; interval > max {
		interval = max
	}
	fe.timers.push(retryTimer{at: s.now + interval, seq: m.seq, m: m})
	if s.now+interval < fe.nextWake {
		fe.nextWake = s.now + interval
	}
}

// fireTimer handles one due delivery-timeout check: re-arm while the
// current attempt is still alive, retransmit when it died, abandon past the
// retry limit.
func (fe *faultEngine) fireTimer(s *Sim, m *msgState) {
	if m.done || m.lost {
		return
	}
	alive := m.pkt != nil && !m.pkt.dead
	if alive {
		// A queued packet on an isolated host will never inject; treat
		// the timeout as a loss so the message can be retried/abandoned
		// rather than silently parked forever.
		queued := m.pkt.injectCycle == 0 && !s.nics[m.src].holdsActive(m.pkt)
		if queued && fe.down[s.hostUpLink(m.src)] {
			fe.kill(s, m.pkt, DropNoRoute)
			s.nics[m.src].purgeSendQ()
			alive = false
		}
	}
	if alive {
		// Re-arming while the attempt is in flight is NOT progress: a
		// packet wedged in the network must still trip the deadlock
		// watchdog rather than be kept "alive" by its own timer.
		fe.armTimer(s, m)
		return
	}
	s.progress++
	if m.attempts >= s.p.RetryLimit+1 {
		m.lost = true
		fe.lost++
		s.outstanding--
		return
	}
	fe.retransmits++
	if s.cfg.Tracer != nil {
		s.trace(Event{Kind: EvRetry, Packet: m.seq, Host: m.src})
	}
	s.dispatch(m)
}

// dispatch creates and queues one transmission attempt for a message,
// looking the route up in the current (possibly recomputed) table. With no
// surviving route the attempt is dropped on the spot and the retry timer
// still armed: a future reconfiguration may restore reachability.
func (s *Sim) dispatch(m *msgState) {
	m.attempts++
	r := s.table.Lookup(m.src, m.dst)
	if r == nil {
		m.pkt = nil
		s.fe.drops.NoRoute++
		s.fe.droppedPackets++
		s.fe.armTimer(s, m)
		return
	}
	p := s.newPacket()
	*p = packet{
		id:       m.seq,
		srcHost:  m.src,
		dstHost:  m.dst,
		route:    r,
		payload:  m.payload,
		genCycle: m.genCycle,
		measured: m.measured,
		msg:      m,
		attempt:  m.attempts - 1,
	}
	p.wireFlits = m.payload + headerFlits(r)
	m.pkt = p
	s.nics[m.src].sendQ = append(s.nics[m.src].sendQ, p)
	s.wakeNIC(m.src)
	s.fe.armTimer(s, m)
}

// purgeDeadState sweeps dead packets out of every buffer and queue after an
// event-time mass kill, repairing connection state, request masks, pool
// accounting, and flow control as it goes.
func (s *Sim) purgeDeadState() {
	for i := range s.inPorts {
		s.purgeInPort(i)
	}
	for h := range s.nics {
		s.nics[h].purgeDead(s)
	}
}

// purgeInPort removes dead runs from one input buffer and repairs the
// routing state that referenced them.
func (s *Sim) purgeInPort(ipIdx int) {
	ip := &s.inPorts[ipIdx]
	hs := ip.buf.headSeg()
	if hs == nil {
		return
	}
	anyDead := false
	for _, seg := range ip.buf.segs[ip.buf.head:] {
		if seg.pkt != nil && seg.pkt.dead {
			anyDead = true
			break
		}
	}
	if !anyDead {
		return
	}
	if hs.pkt.dead {
		sw := &s.switches[ip.sw]
		if ip.conn >= 0 {
			op := &s.outPorts[ip.conn]
			op.state = outFree
			sw.conns--
			ip.conn = -1
		} else if ip.pendingOut >= 0 {
			op := &s.outPorts[ip.pendingOut]
			if op.state == outSetup && op.inp == ipIdx {
				op.state = outFree
				sw.setups--
			} else if op.reqMask&(1<<uint(ip.localIdx)) != 0 {
				op.reqMask &^= 1 << uint(ip.localIdx)
				sw.waiting--
			}
			ip.pendingOut = -1
		}
	}
	headWasDead := hs.pkt.dead
	ip.buf.purgeDead()
	if !s.links[ip.link].down {
		ip.consumed(s)
	}
	if headWasDead && ip.buf.headSeg() != nil && ip.conn < 0 && ip.pendingOut < 0 {
		ip.killDeadHeads(s)
	}
}
