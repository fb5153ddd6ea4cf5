package netsim

import (
	"fmt"
	"math"
)

// signalInFlight is a control flit travelling back to the sender: a
// stop/go update under stop & go flow control, or a one-flit credit return
// for lane vc under virtual-channel flow control (the link's credits slice
// decides which interpretation applies).
type signalInFlight struct {
	stop   bool
	vc     uint8
	arrive int64
}

// link is one direction of a cable: switch-to-switch channels, host up-links
// (NIC to switch) and host down-links (switch to NIC) all use the same
// model. Flits enter at one flit per cycle when the sender is not stopped
// and arrive LinkFlightCycles later; stop/go control flits travel the other
// way with the same flight time.
type link struct {
	id int

	// Receiving side: exactly one of recvPort (index into Sim.inPorts)
	// and recvNIC (host ID) is >= 0.
	recvPort int
	recvNIC  int

	stopped bool // sender-side view of the last control flit
	down    bool // out of service (fault injection); senders must not push

	// credits is the sender-side per-VC credit count in virtual-channel
	// mode (nil under stop & go): the credits taken so far. The sender
	// spends one credit per flit pushed on a lane; the receiver returns one
	// per flit it consumes from that lane's buffer, via the same signal
	// pipeline stop & go uses. A return that has arrived stays on the signal
	// ring until a reader of the count takes it (absorb), so the count a
	// per-cycle visit would read is credits plus the returns for the lane
	// that have arrived.
	credits []int16

	// lanes holds the flits towards the receiver, in flight and buffered,
	// one run queue per virtual channel (one under stop & go); signals holds
	// the control flits back to the sender, oldest first: stop/go flits
	// until they arrive, credit returns until a reader absorbs them.
	lanes   []runQueue
	signals ring[signalInFlight]

	busy        int64 // flits pushed during the measurement window
	idleStopped int64 // cycles the sender had a flit ready but was stopped
}

// pushFlit puts one flit on the cable at the current cycle. Called by the
// sender-side component. The link goes on the arrival wheel at the flit's
// arrival cycle only when the arrival acts (see acts).
//
//sim:hotpath
func (l *link) pushFlit(s *Sim, pkt *packet, tail bool) {
	q := &l.lanes[0]
	if l.credits != nil {
		l.credits[pkt.vc]--
		if l.credits[pkt.vc] < 0 {
			l.noCredit(int(pkt.vc))
		}
		q = &l.lanes[pkt.vc]
	}
	at := s.now + int64(s.p.LinkFlightCycles)
	if first := q.push(pkt, tail, at); l.acts(s, q, first, tail) {
		s.scheduleFlit(l.id, at)
	}
	if s.measuring {
		l.busy++
	}
	s.progress++
}

// pushAhead is pushFlit for the flits of pkt a commitment sends ahead of
// their departures (see Sim.commit): one arriving at cycle at+i on lane
// q for each bit i of mask, none of them its packet's first or its tail.
// The link goes on the arrival wheel at each arrival that acts (acts with
// the lane's count after each push, and at a NIC the flits that start a
// run); busy time, progress and credits count when the departures settle.
//
//sim:hotpath
func (l *link) pushAhead(s *Sim, q *runQueue, pkt *packet, at int64, mask uint64) {
	quiet := 0 // leading flits whose arrival does not act
	if l.recvPort >= 0 {
		quiet = s.actLimit - q.n
	}
	if starts := q.pushAhead(pkt, at, mask); l.recvPort < 0 {
		mask = starts
	}
	for m := mask; m != 0; m &= m - 1 {
		if quiet--; quiet < 0 {
			s.scheduleFlit(l.id, at+int64(trailingZeros(m)))
		}
	}
}

// acts reports whether the arrival of a flit just pushed on lane q can have
// an effect, so the link must be visited at its arrival cycle. A switch
// input acts on a packet's first flit, which may start its routing
// request, and on any flit that could lift the lane's buffer over the stop
// threshold (the VC buffer depth, in VC mode), which sends a stop signal or
// trips the overflow check. The buffer then holds at most the flits the
// lane holds now. Every other arrival only adds a flit to the buffer,
// which the receiver reads from the arrival stamps. A NIC reads each lane
// of its reception from the stamps the same way (nic.settleRx): it acts on
// a packet's first flit, which starts the reception, on the tail, which
// completes it, and on a flit that starts a run, so the runs it has not
// taken yet fit the lane's inline store.
//
//sim:hotpath
func (l *link) acts(s *Sim, q *runQueue, first, tail bool) bool {
	if l.recvPort >= 0 {
		return first || q.n > s.actLimit
	}
	return tail || q.runs.at(q.runs.n-1).mask == 1
}

// pushSignal sends a stop/go control flit back to the sender. Signals on a
// dead cable vanish; the sender-side state is resynchronized on repair.
// Called by the receiver-side port.
//
//sim:hotpath
func (l *link) pushSignal(s *Sim, stop bool) {
	if l.down {
		return
	}
	at := s.now + int64(s.p.LinkFlightCycles)
	l.signals.push(signalInFlight{stop: stop, arrive: at})
	s.scheduleSignal(l.id, at)
}

// pushCreditAt returns one credit for lane vc to the sender, arriving at
// cycle at, no earlier than every credit already on l, a flight after the
// flit leaves the receiver: a switch input's buffer (inPort.consumed, or a
// committed output's settle, Sim.settle), or a NIC's down-link when the
// NIC takes it (nic.receive). VC mode excludes faults, so there is no
// dead-cable case. The readers of the count take the return when they
// read (absorb), so the link goes on the arrival wheel only when its
// sender is parked on credits, for the arrival to wake it.
//
//sim:hotpath
func (l *link) pushCreditAt(s *Sim, vc int, at int64) {
	l.signals.push(signalInFlight{vc: uint8(vc), arrive: at})
	if s.sleepers.has(l.id) && s.sender(l.id).commitMask == 0 {
		s.scheduleSignal(l.id, at)
	}
}

// absorb moves the credit returns on l's signal ring that have arrived by
// cycle through into its held credits. Every reader of a credit link's
// count calls it first, so it reads what a per-cycle visit would: the
// lane round robin (outPort.nextSender), an injecting NIC's credit check,
// a commitment's departure scan (Sim.newScan), a settle before it spends,
// and settleParked for every credit link. On a NIC down-link it first
// settles the NIC through the same cycle (nic.settleRx), which returns the
// credits of the flits it takes, as settleDrain settles the output that
// drains a switch input. A count above the buffer depth fails the credit
// conservation check; the per-cycle loop runs it at each return's arrival,
// a lazy read at the read that takes the return.
//
//sim:hotpath
func (l *link) absorb(s *Sim, through int64) {
	if l.recvNIC >= 0 {
		s.nics[l.recvNIC].settleRx(s, through)
	}
	for l.signals.n > 0 && l.signals.front().arrive <= through {
		g := l.signals.pop()
		if l.credits[g.vc]++; int(l.credits[g.vc]) > s.p.VCBufFlits {
			l.overCredit(g.vc)
		}
	}
}

// overCredit fails absorb's credit conservation check, kept out of line so
// absorb holds no allocation site.
//
//go:noinline
func (l *link) overCredit(vc uint8) {
	panic(fmt.Sprintf("netsim: link %d VC %d credits above buffer depth", l.id, vc))
}

// noCredit fails the credit conservation check of a push or of a settled
// commitment's departures, kept out of line so pushFlit and Sim.spend hold
// no allocation site.
//
//go:noinline
func (l *link) noCredit(vc int) {
	panic(fmt.Sprintf("netsim: link %d pushed on VC %d without credit", l.id, vc))
}

// deliverSignals applies arrived control flits to the sender-side state. A
// go signal wakes the sender if it parked on the stopped link. A visit to a
// credit link wakes a sender parked on credits, as a return may be the
// credit it waits for, and then takes the returns that have arrived
// (absorb): a NIC the absorb settles returns a credit stamped at this
// cycle, which must not put a parked sender on the slot being walked. The
// dense loop takes every return on its arrival cycle; the active-set loop
// visits a credit link only at the returns a parked sender waits for
// (pushCreditAt, Sim.parkStarved).
//
//sim:hotpath
func (l *link) deliverSignals(s *Sim) {
	if l.credits != nil {
		if s.sleepers.has(l.id) && s.sender(l.id).commitMask == 0 {
			s.wake(s.sender(l.id), s.now-1)
		}
		l.absorb(s, s.now)
		return
	}
	wasStopped := l.stopped
	for l.signals.n > 0 && l.signals.front().arrive <= s.now {
		l.stopped = l.signals.pop().stop
	}
	if wasStopped && !l.stopped && s.sleepers.has(l.id) {
		s.wake(s.sender(l.id), s.now-1)
	}
}

// deliverFlits hands the flit arriving this cycle, if any, to the
// receiver: a switch input, whose buffer the flit joins by its stamp alone,
// runs its arrival checks, and a NIC takes every flit arrived by now
// (nic.settleRx).
//
//sim:hotpath
func (l *link) deliverFlits(s *Sim) {
	if l.recvPort < 0 {
		s.rxVisits++
		s.nics[l.recvNIC].settleRx(s, s.now)
		return
	}
	for v := range l.lanes {
		q := &l.lanes[v]
		if r := q.arrival(s.now); r != nil {
			s.inPorts[l.recvPort].arrive(s, v, q, r)
		}
	}
}

// nextArrival returns the lane v whose next flit arrives first on l, at
// cycle at, and the arrival of the next flit on any other lane, next; both
// are math.MaxInt64, and v is -1, when nothing does.
func (l *link) nextArrival() (v int, at, next int64) {
	v, at, next = -1, math.MaxInt64, math.MaxInt64
	for i := range l.lanes {
		if q := &l.lanes[i]; q.runs.n > 0 {
			if a := q.runs.front().arrive; a < at {
				v, at, next = i, a, at
			} else {
				next = min(next, a)
			}
		}
	}
	return v, at, next
}

// idle reports whether the cable carries no flits and no pending signals
// at the start of the current cycle's delivery.
func (l *link) idle(s *Sim) bool {
	if l.signals.n > 0 {
		return false
	}
	for v := range l.lanes {
		if l.lanes[v].inFlight(s.now) {
			return false
		}
	}
	return true
}

// ring is a FIFO on a power-of-two circular buffer: n live entries, oldest
// at buf[head], wrapping at len(buf). A cable's signals and its lanes' runs
// live in rings carved from shared slabs, so the steady state pops in place
// and never copies or allocates; a push into a full ring doubles it (grow).
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

// ringSize is the smallest power of two that holds n entries.
func ringSize(n int) int {
	size := 1
	for size < n {
		size <<= 1
	}
	return size
}

// push appends v as the newest entry.
//
//sim:hotpath
func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// front returns the oldest entry of a non-empty ring.
func (r *ring[T]) front() *T { return &r.buf[r.head] }

// pop removes and returns the oldest entry of a non-empty ring, zeroing its
// slot so the ring holds no stale packet pointers.
//
//sim:hotpath
func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// at returns the i-th oldest live entry.
func (r *ring[T]) at(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

// reset empties the ring, keeping its storage.
func (r *ring[T]) reset() {
	clear(r.buf)
	r.head, r.n = 0, 0
}

// grow doubles a full ring, unwrapping its entries to the front. It is the
// fallback for a burst beyond the slab's share (VC credit returns can come
// more than one per cycle; gaps split a lane into many short runs), kept
// out of line so push holds no allocation site.
//
//go:noinline
func (r *ring[T]) grow() {
	buf := make([]T, max(1, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		buf[i] = *r.at(i)
	}
	r.buf, r.head = buf, 0
}
