// Package netsim is a cycle-driven, flit-level simulator of Myrinet-style
// networks with source routing. One simulator cycle is the time a one-byte
// flit needs to cross a link boundary (6.25 ns at 160 MB/s). The model
// follows §4.3–§4.5 of the paper:
//
//   - Links are pipelined: a new flit enters the cable every cycle and up to
//     8 flits are in flight on a 10 m cable (49.2 ns fly time).
//   - Flow control is hardware stop & go: the receiving side sends a stop
//     (go) control flit when its 80-byte slack buffer fills over 56 bytes
//     (empties below 40 bytes); control flits take a link flight to arrive.
//   - Switches strip the first header flit to select the output port. If
//     the output is free the first-flit latency is 150 ns; an output port
//     processes one header at a time and is assigned to waiting packets in
//     demand-slotted round-robin order. A crossbar lets unrelated packets
//     cross simultaneously.
//   - NICs inject one packet at a time (the whole packet is in NIC memory
//     before transmission). An in-transit packet is detected 275 ns after
//     its header reaches the NIC (44 bytes) and its re-injection DMA is
//     programmed after 200 ns more (32 bytes); re-injection starts as soon
//     as the output channel is free and never outruns reception. In-transit
//     buffers are allocated from a 90 KB pool per NIC.
//
// A cycle advances in four fixed stages (see Sim.step): links deliver
// arrived flits and stop/go control signals, switch routing control units
// decide and tear down connections, NICs run DMA timers and message
// generation, and finally every established connection and active
// injection pushes one flit, or, streaming under stop & go, commits its
// departures up to one flight ahead. The fixed order makes runs reproducible: the
// only randomness is the per-NIC generation RNG seeded from Config.Seed.
//
// A cable and its receiver's input buffer are one queue of packet runs per
// lane, each stamped with the arrival cycle of its first flit (cable.go):
// a switch reads its buffer's occupancy and head packet from the stamps,
// so a flit needs no delivery step to join the buffer, and a NIC takes the
// flits that have arrived on each lane a run at a time, when a packet's
// first flit, its tail or a new run arrives or a reader of its reception
// or of its down-link's credits needs them.
//
// Each stage visits only the components that currently have work: links
// sit on an arrival wheel at the cycles their signals and the flit
// arrivals that act reach the far end, switches and NICs register in
// per-class active sets when they gain work and deregister when idle, and
// sleeping NICs arm their next generation time on a timer heap
// (activeset.go). NICs and switch outputs stalled on a stopped stop & go
// link park until its go signal and add the stall cycles they skipped in
// one step when they wake. A streaming stop & go output or NIC injection
// commits the departures no signal can change before one link flight has
// passed (a re-injection's waits on its reception included): the flits go
// onto the next cable at once, the sender sleeps until a wake on the
// arrival wheel, and every reader of the state the departures change
// settles them first. The sets iterate in
// ascending component ID — the same order as a dense scan — so results
// are byte-identical to visiting everything every cycle (Config.denseStep
// runs that legacy loop for comparison) while nearly idle cycles, the
// common case at the low-load points of every curve and in fault drain
// windows, cost almost nothing.
//
// Observability is layered on without touching that loop: cumulative
// hardware-style counters (link busy/stopped cycles, ITB pool bytes,
// buffer occupancy) are maintained in place and snapshotted by the
// optional windowed collector of Config.Metrics (internal/metrics) at
// window boundaries — one comparison per cycle when enabled, nothing when
// not. Message latencies stream into log-bucketed histograms, which back
// the Result percentiles and the exported latency distribution. The
// per-packet Tracer (Config.Tracer) is the complementary mechanism: exact
// life-cycle events for few packets, where metrics are aggregates over all
// of them. See docs/METRICS.md for the exported telemetry schema.
package netsim

import "fmt"

// Params are the timing and sizing constants of the Myrinet model. The zero
// value is not valid; start from DefaultParams.
type Params struct {
	CycleNs float64 // wall-clock duration of a cycle (one flit on a link)

	LinkFlightCycles int // flits concurrently in flight on a link (cable delay)
	RoutingCycles    int // switch routing decision (150 ns)

	SlackBufferFlits int // input slack buffer per switch port (80 bytes)
	StopThreshold    int // send stop when occupancy rises over this (56 bytes)
	GoThreshold      int // send go when occupancy falls below this (40 bytes); at least 1

	ITBDetectFlits int // bytes received before an in-transit packet is recognised (44)
	ITBDMAFlits    int // further bytes received while the re-injection DMA is programmed (32)
	ITBPoolBytes   int // in-transit buffer pool per NIC (90 KB)

	// SourceQueueCap bounds the per-NIC queue of locally generated
	// messages; generation stalls while the queue is full, which is how
	// the network applies backpressure beyond saturation.
	SourceQueueCap int

	// SourceBubblePeriod models footnote 1 of the paper: due to limited
	// memory bandwidth in the network interfaces, a source host may
	// inject bubbles into the network, lowering the effective reception
	// rate at the in-transit host. When > 0, source injections skip one
	// cycle after every SourceBubblePeriod flits sent. 0 (the default)
	// disables bubbles, matching the paper's assumption that the MCP
	// avoids them.
	SourceBubblePeriod int

	// VCBufFlits is the per-VC input buffer (and so the credit count) of
	// every link under virtual-channel flow control, which a routing table
	// with NumVCs > 0 selects, one lane per virtual channel (see
	// docs/VC.md); 0 means DefaultVCBufFlits, and stop & go ignores it.
	// Full link throughput on one lane needs at least the credit
	// round-trip, 2*LinkFlightCycles + 2 flits.
	VCBufFlits int

	// WatchdogCycles aborts the run if no flit moves for this long while
	// packets are outstanding (deadlock detector; must never fire for the
	// routing schemes under test).
	WatchdogCycles int64

	// The remaining fields time the fault-recovery machinery and are only
	// consulted when Config.Faults schedules events; zero values are
	// replaced by the fault defaults below at Sim construction.

	// DetectionCycles is the delay between a topology change and the
	// moment the reconfiguration controller notices it and starts a new
	// mapping pass (the MCP's periodic topology check).
	DetectionCycles int64
	// ProbeCycles charges the mapping pass per probe packet sent; the
	// discovery latency of a reconfiguration is Probes * ProbeCycles.
	ProbeCycles int64
	// DrainCycles is the window between the new tables being ready and
	// the atomic per-NIC swap, letting in-flight traffic drain.
	DrainCycles int64
	// RetryTimeoutCycles is the per-message delivery timeout armed at
	// generation: when it fires and the current transmission attempt is
	// known dead, the source re-sends on the route the (possibly
	// recomputed) table then offers. The timeout doubles on every retry
	// of a message (bounded exponential backoff).
	RetryTimeoutCycles int64
	// RetryLimit caps transmission attempts per message; a message
	// exceeding it is abandoned and counted in Result.LostMessages.
	RetryLimit int
}

// DefaultParams returns the constants of §4.3–§4.5.
func DefaultParams() Params {
	return Params{
		CycleNs:          6.25,
		LinkFlightCycles: 8,  // 10 m x 4.92 ns/m = 49.2 ns ≈ 8 flit slots
		RoutingCycles:    24, // 150 ns
		SlackBufferFlits: 80,
		StopThreshold:    56,
		GoThreshold:      40,
		ITBDetectFlits:   44, // 275 ns
		ITBDMAFlits:      32, // 200 ns
		ITBPoolBytes:     90 * 1024,
		SourceQueueCap:   32,
		WatchdogCycles:   1_000_000,
	}
}

// DefaultVCBufFlits is the per-VC buffer depth used when Params.VCBufFlits
// is left zero in VC mode: the 18-flit credit round-trip (2 x 8-cycle link
// flight + send and consume slots) plus headroom, so a single lane can
// saturate its link.
const DefaultVCBufFlits = 24

// Fault-timing defaults, applied only when a fault plan is active so that
// parameter sets predating the fault machinery stay valid unchanged.
const (
	defaultDetectionCycles    = 1024   // 6.4 µs between MCP topology checks
	defaultProbeCycles        = 16     // 100 ns per probe round-trip
	defaultDrainCycles        = 2048   // 12.8 µs drain before the table swap
	defaultRetryTimeoutCycles = 50_000 // 312 µs host-level delivery timeout
	defaultRetryLimit         = 4
)

// applyFaultDefaults fills zero fault-timing fields with the defaults; the
// retry timeout is clamped under the deadlock watchdog so a run waiting on
// a timer is never mistaken for a deadlock.
func (p *Params) applyFaultDefaults() {
	if p.DetectionCycles == 0 {
		p.DetectionCycles = defaultDetectionCycles
	}
	if p.ProbeCycles == 0 {
		p.ProbeCycles = defaultProbeCycles
	}
	if p.DrainCycles == 0 {
		p.DrainCycles = defaultDrainCycles
	}
	if p.RetryTimeoutCycles == 0 {
		p.RetryTimeoutCycles = defaultRetryTimeoutCycles
		if p.WatchdogCycles > 0 && p.RetryTimeoutCycles >= p.WatchdogCycles {
			p.RetryTimeoutCycles = p.WatchdogCycles / 2
		}
	}
	if p.RetryLimit == 0 {
		p.RetryLimit = defaultRetryLimit
	}
}

// Validate checks internal consistency of the parameters.
func (p Params) Validate() error {
	if p.CycleNs <= 0 {
		return fmt.Errorf("netsim: CycleNs must be positive")
	}
	if p.LinkFlightCycles < 1 {
		return fmt.Errorf("netsim: LinkFlightCycles must be >= 1")
	}
	if p.RoutingCycles < 0 {
		return fmt.Errorf("netsim: RoutingCycles must be >= 0")
	}
	// Occupancy never falls below 0, so a go threshold below 1 never
	// restarts a stopped link.
	if p.GoThreshold < 1 {
		return fmt.Errorf("netsim: go threshold %d must be >= 1", p.GoThreshold)
	}
	if p.GoThreshold >= p.StopThreshold {
		return fmt.Errorf("netsim: go threshold %d must be below stop threshold %d", p.GoThreshold, p.StopThreshold)
	}
	// The slack buffer must absorb the worst-case overshoot: flits in
	// flight when the stop is generated plus flits sent while the stop
	// signal flies back.
	if p.StopThreshold+2*p.LinkFlightCycles > p.SlackBufferFlits {
		return fmt.Errorf("netsim: slack buffer %d cannot absorb stop threshold %d + 2x flight %d",
			p.SlackBufferFlits, p.StopThreshold, p.LinkFlightCycles)
	}
	if p.ITBDetectFlits < 1 || p.ITBDMAFlits < 0 {
		return fmt.Errorf("netsim: ITB delays must be positive")
	}
	if p.ITBPoolBytes < 0 {
		return fmt.Errorf("netsim: ITB pool must be >= 0")
	}
	if p.SourceQueueCap < 1 {
		return fmt.Errorf("netsim: source queue cap must be >= 1")
	}
	if p.SourceBubblePeriod < 0 {
		return fmt.Errorf("netsim: source bubble period must be >= 0")
	}
	if p.VCBufFlits < 0 {
		return fmt.Errorf("netsim: VCBufFlits must be >= 0")
	}
	if p.WatchdogCycles < 1000 {
		return fmt.Errorf("netsim: watchdog below 1000 cycles would misfire")
	}
	if p.DetectionCycles < 0 || p.ProbeCycles < 0 || p.DrainCycles < 0 {
		return fmt.Errorf("netsim: reconfiguration delays must be >= 0")
	}
	if p.RetryTimeoutCycles < 0 || p.RetryLimit < 0 {
		return fmt.Errorf("netsim: retry timeout and limit must be >= 0")
	}
	if p.RetryTimeoutCycles > 0 && p.RetryTimeoutCycles >= p.WatchdogCycles {
		return fmt.Errorf("netsim: retry timeout %d must stay below the watchdog %d",
			p.RetryTimeoutCycles, p.WatchdogCycles)
	}
	return nil
}
