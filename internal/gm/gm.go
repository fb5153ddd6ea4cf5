// Package gm is a minimal host-level message-passing layer in the style of
// Myricom's GM, the protocol the paper's routing tables come from (§4.5
// obtains its baseline routes "from the simple_routes program that comes
// with the GM protocol"). It sits on top of the flit-level simulator:
// application messages larger than the network MTU are segmented into
// packets, injected through the source NIC, and reassembled at the
// destination; a message completes when its last segment is delivered.
//
// The layer is deliberately small — segmentation, reassembly, and
// completion tracking — but it turns the simulator into something an
// application-level workload can drive, and its tests exercise the
// simulator's Enqueue/RunUntilDrained path end to end.
package gm

import (
	"fmt"

	"itbsim/internal/netsim"
	"itbsim/internal/routes"
	"itbsim/internal/topology"
)

// MessageID identifies a message accepted by Send.
type MessageID int64

// Status of a message.
type Status int

const (
	// Pending: not all segments delivered yet.
	Pending Status = iota
	// Delivered: every segment arrived at the destination.
	Delivered
)

// Message is the layer's view of one application message.
type Message struct {
	ID       MessageID
	Src, Dst int
	Bytes    int
	Segments int
	Status   Status
	// LatencyNs is the time from Send to the delivery of the last
	// segment (valid once Status == Delivered).
	LatencyNs float64

	sentCycle int64
	delivered int
}

// Config for the message layer.
type Config struct {
	Net   *topology.Network
	Table *routes.Table
	// MTU is the maximum packet payload in bytes (GM segments larger
	// messages). Myrinet MTUs are configurable; 4 KB is a common choice.
	MTU int
	// MaxCycles bounds the drain; 0 uses the simulator default.
	MaxCycles int64
	Params    netsim.Params
	Tracer    netsim.Tracer
}

// Layer drives the simulator with explicitly sent messages.
type Layer struct {
	cfg      Config
	sim      *netsim.Sim
	messages map[MessageID]*Message
	bySeg    map[int64]MessageID // packet ID -> message
	nextID   MessageID

	cycleNs float64
}

// New builds a message layer over a network and routing table.
func New(cfg Config) (*Layer, error) {
	if cfg.MTU < 1 {
		return nil, fmt.Errorf("gm: MTU must be >= 1 byte")
	}
	l := &Layer{
		cfg:      cfg,
		messages: map[MessageID]*Message{},
		bySeg:    map[int64]MessageID{},
	}
	params := cfg.Params
	if params == (netsim.Params{}) {
		params = netsim.DefaultParams()
	}
	l.cycleNs = params.CycleNs
	sim, err := netsim.New(netsim.Config{
		Net:   cfg.Net,
		Table: cfg.Table,
		Dest: func(src int, _ *netsim.RNG) int {
			panic("gm: internal generation must stay disabled")
		},
		Load:            0, // all traffic comes from Send
		MessageBytes:    cfg.MTU,
		MeasureMessages: 1,
		MaxCycles:       cfg.MaxCycles,
		Params:          params,
		Tracer:          tracerFunc(l.observe),
	})
	if err != nil {
		return nil, err
	}
	l.sim = sim
	return l, nil
}

// tracerFunc adapts a function to netsim.Tracer.
type tracerFunc func(netsim.Event)

func (f tracerFunc) Trace(e netsim.Event) { f(e) }

// observe is the layer's view of the simulator's event stream: it forwards
// every event to the configured Tracer, reassembles delivered segments into
// messages, and completes a message when its last segment lands.
func (l *Layer) observe(e netsim.Event) {
	if l.cfg.Tracer != nil {
		l.cfg.Tracer.Trace(e)
	}
	if e.Kind != netsim.EvDeliver {
		return
	}
	id, ok := l.bySeg[e.Packet]
	if !ok {
		return
	}
	delete(l.bySeg, e.Packet)
	m := l.messages[id]
	m.delivered++
	if m.delivered == m.Segments {
		m.Status = Delivered
		m.LatencyNs = float64(e.Cycle-m.sentCycle) * l.cycleNs
	}
}

// Send queues a message of the given size from src to dst, segmenting it
// into MTU-sized packets. It returns the message ID; completion is visible
// through Message / Stats after Drain.
func (l *Layer) Send(src, dst, bytes int) (MessageID, error) {
	if bytes < 1 {
		return 0, fmt.Errorf("gm: message must be >= 1 byte")
	}
	id := l.nextID
	m := &Message{ID: id, Src: src, Dst: dst, Bytes: bytes, sentCycle: l.sim.Now()}
	remaining := bytes
	for remaining > 0 {
		seg := remaining
		if seg > l.cfg.MTU {
			seg = l.cfg.MTU
		}
		pktID, err := l.sim.Enqueue(src, dst, seg)
		if err != nil {
			return 0, fmt.Errorf("gm: %w", err)
		}
		l.bySeg[pktID] = id
		m.Segments++
		remaining -= seg
	}
	l.nextID++
	l.messages[id] = m
	return id, nil
}

// Drain runs the network until every queued segment has been delivered and
// updates message statuses. It may be called repeatedly, interleaved with
// Send.
func (l *Layer) Drain() error {
	res, err := l.sim.RunUntilDrained()
	if err != nil {
		return err
	}
	if res.Truncated {
		return fmt.Errorf("gm: drain truncated at %d cycles with undelivered segments", res.Cycles)
	}
	return nil
}

// Message returns the state of a sent message.
func (l *Layer) Message(id MessageID) (Message, error) {
	m, ok := l.messages[id]
	if !ok {
		return Message{}, fmt.Errorf("gm: unknown message %d", id)
	}
	return *m, nil
}

// Stats summarises completed traffic.
type Stats struct {
	Sent, Delivered int
	TotalBytes      int64
	MaxLatencyNs    float64
	AvgLatencyNs    float64
}

// Stats reports aggregate message statistics.
func (l *Layer) Stats() Stats {
	var st Stats
	var latSum float64
	for _, m := range l.messages {
		st.Sent++
		st.TotalBytes += int64(m.Bytes)
		if m.Status == Delivered {
			st.Delivered++
			latSum += m.LatencyNs
			if m.LatencyNs > st.MaxLatencyNs {
				st.MaxLatencyNs = m.LatencyNs
			}
		}
	}
	if st.Delivered > 0 {
		st.AvgLatencyNs = latSum / float64(st.Delivered)
	}
	return st
}
