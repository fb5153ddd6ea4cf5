package netsim

import (
	"math"
	"math/bits"
)

// trailingZeros is the set-bit iteration primitive: index of the lowest set
// bit of a word.
func trailingZeros(w uint64) int { return bits.TrailingZeros64(w) }

// This file holds the active-set scheduler: the bookkeeping that lets the
// cycle loop visit only the links, switches, and NICs that have work, while
// producing byte-identical results to a dense scan of every component.
//
// Each component class has a bitset of active IDs. The safety rule is
// asymmetric: a spurious member (a component in its set with nothing to do)
// costs one wasted call and is removed on the next visit, but a missing
// member (a component with work absent from its set) silently freezes that
// work. Membership is therefore added eagerly at every site that creates
// work, and removed only at the one point per phase where the component's
// own idle predicate has just been evaluated:
//
//   - linkSet: a link is active while it carries flits or pending stop/go
//     signals (link.idle() is false). Added by pushFlit/pushSignal, removed
//     after deliver once idle.
//   - routingSet: a switch is active while any input has an ungranted
//     routing request or any output is mid-setup (waiting > 0 or
//     setups > 0). Added by inPort.requestRouting (the only waiting++ site),
//     removed after tickRouting once both counters are zero.
//   - transferSet: a switch is active while any output is connected
//     (conns > 0). Added when tickRouting completes a setup, removed after
//     tickTransfer once conns is zero.
//   - nicSet: a NIC is active while it is injecting, holds in-transit
//     packets awaiting their DMA timer, has queued packets it could start
//     (up-link in service), or has message generation due (nextGen <= now —
//     a backpressured NIC stays awake every cycle so per-cycle stall
//     accounting matches the dense scan). Added by Enqueue, dispatch,
//     startReception, and link revival; removed after tickTransfer once no
//     reason remains, at which point the generation timer is parked on the
//     genHeap instead.
//
// Purge and kill paths only ever remove work, so they never need to add
// members; the stale bits they leave behind self-clean on the next cycle.
type bitset struct {
	words []uint64
}

func newBitset(n int) bitset { return bitset{words: make([]uint64, (n+63)/64)} }

func (b *bitset) add(i int)      { b.words[i>>6] |= 1 << uint(i&63) }
func (b *bitset) remove(i int)   { b.words[i>>6] &^= 1 << uint(i&63) }
func (b *bitset) has(i int) bool { return b.words[i>>6]&(1<<uint(i&63)) != 0 }

// fill adds every ID in [0, n).
func (b *bitset) fill(n int) {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	if rem := n & 63; rem != 0 {
		b.words[len(b.words)-1] = (1 << uint(rem)) - 1
	}
}

// genTimer is one parked generation wake-up: the NIC's next message is due
// at cycle at (ceil of its fractional nextGen), so the NIC sleeps until
// then instead of ticking every cycle.
type genTimer struct {
	at   int64
	host int
}

// genHeap is a binary min-heap ordered by (at, host): deterministic pop
// order regardless of how NICs went to sleep. Pops only set bits in nicSet,
// which commutes, but the fixed order keeps the structure auditable.
type genHeap []genTimer

func (h genHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].host < h[j].host
}

func (h *genHeap) push(t genTimer) {
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

func (h *genHeap) pop() genTimer {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
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

// armGen parks a sleeping NIC's generation wake-up on the generation heap.
// The wake cycle is ceil(nextGen): the first cycle at which the dense-scan
// condition nextGen <= now would hold. Load 0 (infinite interval) never
// arms.
func (s *Sim) armGen(n *nic) {
	if n.genArmed || n.stopGen || math.IsInf(s.genIntervalCycles, 1) {
		return
	}
	s.genTimers.push(genTimer{at: int64(math.Ceil(n.nextGen)), host: n.host})
	n.genArmed = true
}

// wakeNIC puts a NIC into the per-cycle tick set. Idempotent; call at every
// site that hands a NIC new work from outside its own tick.
func (s *Sim) wakeNIC(h int) { s.nicSet.add(h) }

// nicNeedsTick is the dense-scan activity predicate for one NIC: true when
// a dense tick/tickTransfer of this NIC at the current cycle would have an
// observable effect. Used by the removal check at the end of each cycle and
// by the stranded-work property test's brute-force scan.
func (s *Sim) nicNeedsTick(n *nic) bool {
	if n.active || len(n.pending) > 0 {
		return true
	}
	if !n.stopGen && n.nextGen <= float64(s.now) {
		return true // generation due (or backpressured: stalls count per cycle)
	}
	if (n.reinjH < len(n.reinjQ) || n.sendQH < len(n.sendQ)) &&
		!(s.fe != nil && s.fe.down[n.upLink]) {
		return true // a queued packet could start injecting
	}
	return false
}

// stepActive runs the four per-cycle phases over the active sets only.
// Set-bit iteration is ascending by component ID over word snapshots, so
// the visit order is the dense scan's order: a component added mid-phase
// either is the one being visited (its post-visit idle check sees the new
// work) or gains work only observable next cycle.
//
//sim:hotpath
func (s *Sim) stepActive() {
	// 1. Links deliver arrived flits and control signals.
	for w, word := range s.linkSet.words {
		for word != 0 {
			i := w<<6 + trailingZeros(word)
			word &= word - 1
			l := &s.links[i]
			l.deliver(s)
			if l.idle() {
				s.linkSet.remove(i)
			}
		}
	}
	// 2. Switch routing control units.
	for w, word := range s.routingSet.words {
		for word != 0 {
			i := w<<6 + trailingZeros(word)
			word &= word - 1
			sw := &s.switches[i]
			sw.tickRouting(s)
			if sw.setups == 0 && sw.waiting == 0 {
				s.routingSet.remove(i)
			}
		}
	}
	// 3. NIC bookkeeping: wake NICs whose parked generation timer is due,
	// then tick the active ones.
	for len(s.genTimers) > 0 && s.genTimers[0].at <= s.now {
		t := s.genTimers.pop()
		s.nics[t.host].genArmed = false
		s.nicSet.add(t.host)
	}
	for w, word := range s.nicSet.words {
		for word != 0 {
			i := w<<6 + trailingZeros(word)
			word &= word - 1
			s.nics[i].tick(s)
		}
	}
	// 4. Transfers; the NIC pass doubles as the sleep point.
	for w, word := range s.transferSet.words {
		for word != 0 {
			i := w<<6 + trailingZeros(word)
			word &= word - 1
			sw := &s.switches[i]
			sw.tickTransfer(s)
			if sw.conns == 0 {
				s.transferSet.remove(i)
			}
		}
	}
	for w, word := range s.nicSet.words {
		for word != 0 {
			i := w<<6 + trailingZeros(word)
			word &= word - 1
			n := &s.nics[i]
			n.tickTransfer(s)
			if !s.nicNeedsTick(n) {
				s.nicSet.remove(i)
				s.armGen(n)
			}
		}
	}
}
