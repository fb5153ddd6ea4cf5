package netsim

import "fmt"

// flitInFlight is one flit travelling on a cable.
type flitInFlight struct {
	pkt    *packet
	tail   bool
	arrive int64
}

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
	// mode (nil under stop & go). The sender spends one credit per flit
	// pushed on a lane; the receiver returns one per flit it consumes from
	// that lane's buffer, via the same signal pipeline stop & go uses.
	credits []int16

	flits   []flitInFlight
	flHead  int
	signals []signalInFlight
	sgHead  int

	busy        int64 // flits pushed during the measurement window
	idleStopped int64 // cycles the sender had a flit ready but was stopped
}

// pushFlit puts one flit on the cable at the current cycle. Called by the
// sender-side component.
//
//sim:hotpath
func (l *link) pushFlit(s *Sim, pkt *packet, tail bool) {
	if l.credits != nil {
		l.credits[pkt.vc]--
		if l.credits[pkt.vc] < 0 {
			panic(fmt.Sprintf("netsim: link %d pushed on VC %d without credit", l.id, pkt.vc))
		}
	}
	l.flits = append(l.flits, flitInFlight{pkt: pkt, tail: tail, arrive: s.now + int64(s.p.LinkFlightCycles)})
	s.linkSet.add(l.id)
	if s.measuring {
		l.busy++
	}
	s.progress++
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
	l.signals = append(l.signals, signalInFlight{stop: stop, arrive: s.now + int64(s.p.LinkFlightCycles)})
	s.linkSet.add(l.id)
}

// pushCredit returns one credit for lane vc to the sender. VC mode excludes
// faults, so there is no dead-cable case. Called by the receiver-side
// component.
//
//sim:hotpath
func (l *link) pushCredit(s *Sim, vc int) {
	l.signals = append(l.signals, signalInFlight{vc: uint8(vc), arrive: s.now + int64(s.p.LinkFlightCycles)})
	s.linkSet.add(l.id)
}

// deliverSignals applies arrived control flits to the sender-side state.
//
//sim:hotpath
func (l *link) deliverSignals(s *Sim) {
	for l.sgHead < len(l.signals) && l.signals[l.sgHead].arrive <= s.now {
		if l.credits != nil {
			g := l.signals[l.sgHead]
			l.credits[g.vc]++
			if int(l.credits[g.vc]) > s.p.VCBufFlits {
				panic(fmt.Sprintf("netsim: link %d VC %d credits above buffer depth", l.id, g.vc))
			}
		} else {
			l.stopped = l.signals[l.sgHead].stop
		}
		l.sgHead++
	}
	if l.sgHead == 0 {
		return
	}
	rest := copy(l.signals, l.signals[l.sgHead:])
	l.signals = l.signals[:rest]
	l.sgHead = 0
}

// deliverFlits moves arrived flits into the receiver. The drained head is
// compacted away every cycle so the backing array (a slab slice shared by
// all links) never grows past the flits of one flight window.
//
//sim:hotpath
func (l *link) deliverFlits(s *Sim) {
	for l.flHead < len(l.flits) && l.flits[l.flHead].arrive <= s.now {
		f := l.flits[l.flHead]
		l.flits[l.flHead] = flitInFlight{}
		l.flHead++
		if l.recvPort >= 0 {
			s.inPorts[l.recvPort].receive(s, f.pkt, f.tail)
		} else {
			s.nics[l.recvNIC].receive(s, f.pkt, f.tail)
		}
	}
	if l.flHead == 0 {
		return
	}
	rest := copy(l.flits, l.flits[l.flHead:])
	for i := rest; i < len(l.flits); i++ {
		l.flits[i] = flitInFlight{}
	}
	l.flits = l.flits[:rest]
	l.flHead = 0
}

// deliver drains both directions: signals first, then flits.
func (l *link) deliver(s *Sim) {
	l.deliverSignals(s)
	l.deliverFlits(s)
}

// idle reports whether the cable carries no flits and no pending signals.
func (l *link) idle() bool {
	return l.flHead == len(l.flits) && l.sgHead == len(l.signals)
}
