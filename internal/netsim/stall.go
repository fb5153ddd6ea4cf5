package netsim

import (
	"fmt"
	"sort"
	"strings"
)

// maxStalledReported bounds how many stalled packets a diagnostic lists.
const maxStalledReported = 8

// StalledPacket describes one packet that was still alive when a run was
// cut short (deadlock watchdog or MaxCycles truncation).
type StalledPacket struct {
	Packet   int64
	Src, Dst int
	// AgeCycles is how long ago the message was generated.
	AgeCycles int64
	// Where locates the packet's head: a switch input buffer, a link in
	// flight, or a NIC queue/state slot.
	Where string
	// Switch and Port identify the head switch input for buffered
	// packets (-1 otherwise).
	Switch, Port int
	// RouteLeft summarises the unfinished part of the source route.
	RouteLeft string
}

// StallDump is the stalled-packet diagnostic attached to truncated runs
// (Result.Stall) and deadlock errors.
type StallDump struct {
	Cycle       int64
	Outstanding int64
	// Oldest lists the longest-stalled packets, oldest first, capped at
	// maxStalledReported.
	Oldest []StalledPacket
}

// String renders a compact multi-line report.
func (d *StallDump) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d packets outstanding at cycle %d", d.Outstanding, d.Cycle)
	for _, p := range d.Oldest {
		fmt.Fprintf(&b, "\n  pkt %d %d->%d age %d cycles at %s, %s",
			p.Packet, p.Src, p.Dst, p.AgeCycles, p.Where, p.RouteLeft)
	}
	return b.String()
}

// routeLeft summarises the remaining journey of a packet's source route.
func routeLeft(p *packet) string {
	if p.route == nil {
		return "no route"
	}
	hops := 0
	for si := p.segIdx; si < len(p.route.Segs); si++ {
		n := len(p.route.Segs[si].Channels)
		if si == p.segIdx {
			n -= p.chanIdx
		}
		hops += n
	}
	return fmt.Sprintf("seg %d/%d, %d hops left", p.segIdx+1, len(p.route.Segs), hops)
}

// stallDump scans every buffer, link, and NIC for live packets and reports
// the k oldest. The scan is linear in network state and only runs when a
// run is already being aborted or truncated.
func (s *Sim) stallDump(k int) *StallDump {
	type loc struct {
		where        string
		swID, portID int
	}
	seen := map[*packet]loc{}
	note := func(p *packet, where string, sw, port int) {
		if p == nil || p.dead {
			return
		}
		if _, ok := seen[p]; !ok {
			seen[p] = loc{where: where, swID: sw, portID: port}
		}
	}
	// Head positions first: switch input buffers, then cables, then NICs,
	// so the recorded location is the furthest point the head reached.
	for i := range s.inPorts {
		ip := &s.inPorts[i]
		for v := range s.links[ip.link].lanes {
			where := fmt.Sprintf("switch %d input of link %d", ip.sw, ip.link)
			if s.vcMode {
				where = fmt.Sprintf("switch %d input of link %d lane %d", ip.sw, ip.link, v)
			}
			q := &s.links[ip.link].lanes[v]
			for j := 0; j < q.runs.n; j++ {
				if r := q.runs.at(j); !r.stale && r.buffered(s.seen) {
					note(r.pkt, where, ip.sw, ip.localIdx)
				}
			}
		}
	}
	for i := range s.links {
		l := &s.links[i]
		for v := range l.lanes {
			q := &l.lanes[v]
			for j := 0; j < q.runs.n; j++ {
				if r := q.runs.at(j); r.inFlight(s.seen) {
					note(r.pkt, fmt.Sprintf("link %d in flight", l.id), -1, -1)
				}
			}
		}
	}
	for h := range s.nics {
		n := &s.nics[h]
		note(n.rxPkt, fmt.Sprintf("host %d receiving", h), -1, -1)
		for v := range n.rxVC {
			note(n.rxVC[v].pkt, fmt.Sprintf("host %d receiving lane %d", h, v), -1, -1)
		}
		if n.active {
			note(n.cur.pkt, fmt.Sprintf("host %d injecting", h), -1, -1)
		}
		for _, r := range n.pending {
			note(r.pkt, fmt.Sprintf("host %d ITB pending", h), -1, -1)
		}
		for _, r := range n.reinjQ[n.reinjH:] {
			if r != nil {
				note(r.pkt, fmt.Sprintf("host %d ITB reinject queue", h), -1, -1)
			}
		}
		for _, p := range n.sendQ[n.sendQH:] {
			note(p, fmt.Sprintf("host %d send queue", h), -1, -1)
		}
	}

	pkts := make([]*packet, 0, len(seen))
	//lint:ignore detrange keys are collected then sorted by (genCycle, id) below before any use
	for p := range seen {
		pkts = append(pkts, p)
	}
	sort.Slice(pkts, func(i, j int) bool {
		if pkts[i].genCycle != pkts[j].genCycle {
			return pkts[i].genCycle < pkts[j].genCycle
		}
		return pkts[i].id < pkts[j].id
	})
	if len(pkts) > k {
		pkts = pkts[:k]
	}
	d := &StallDump{Cycle: s.now, Outstanding: s.outstanding}
	for _, p := range pkts {
		l := seen[p]
		d.Oldest = append(d.Oldest, StalledPacket{
			Packet:    p.id,
			Src:       p.srcHost,
			Dst:       p.dstHost,
			AgeCycles: s.now - p.genCycle,
			Where:     l.where,
			Switch:    l.swID,
			Port:      l.portID,
			RouteLeft: routeLeft(p),
		})
	}
	return d
}

// deadlockError wraps ErrDeadlock with the stalled-packet diagnostic.
func (s *Sim) deadlockError() error {
	s.settleParked(s.now - 1)
	return fmt.Errorf("%w: %s", ErrDeadlock, s.stallDump(maxStalledReported))
}
