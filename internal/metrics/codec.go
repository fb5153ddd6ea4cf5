package metrics

import (
	"fmt"

	"itbsim/internal/wire"
)

// Binary codecs for the streaming state of this package, used by the
// simulator checkpoint (docs/CHECKPOINT.md): a mid-run Collector and its
// Histograms round-trip exactly, so a restored run's exported telemetry is
// byte-identical to the uninterrupted run's. Each type has one walk over its
// fields that both MarshalBinary and UnmarshalBinary run (internal/wire).
// The encoding is little-endian with 4-byte slice length prefixes and a
// leading format version byte per type; a decoded length is bounded by the
// bytes left, so a corrupt prefix cannot size an allocation.

const (
	histogramCodecVersion = 1
	collectorCodecVersion = 1
)

// lenSize is the width of this package's slice length prefixes.
const lenSize = 4

// version writes v, or reads a version byte and fails unless it is v.
func version(c *wire.Codec, v uint8, what string) {
	got := v
	c.U8(&got)
	if got != v {
		c.Fail(fmt.Errorf("%s codec version %d, want %d", what, got, v))
	}
}

// i32 keeps the collector's 4-byte encoding of its int32 peaks.
func i32(c *wire.Codec, v *int32) {
	u := uint32(*v)
	c.U32(&u)
	if c.Reading() {
		*v = int32(u)
	}
}

func unmarshal(what string, data []byte, walk func(*wire.Codec)) error {
	if err := wire.Unmarshal(data, lenSize, walk); err != nil {
		return fmt.Errorf("metrics: decoding %s: %w", what, err)
	}
	return nil
}

// walk is the histogram's encoding: bucket counts and the exact summary
// moments (count, sum, min, max).
func (h *Histogram) walk(c *wire.Codec) {
	version(c, histogramCodecVersion, "histogram")
	c.U64(&h.count)
	c.F64(&h.sum)
	c.F64(&h.min)
	c.F64(&h.max)
	if c.Reading() && h.counts == nil {
		h.counts = make([]uint64, NumBuckets)
	}
	wire.Array(c, h.counts, (*wire.Codec).U64)
}

// MarshalBinary serializes the histogram's complete state.
func (h *Histogram) MarshalBinary() ([]byte, error) { return wire.Marshal(lenSize, h.walk) }

// UnmarshalBinary restores a histogram serialized by MarshalBinary,
// overwriting the receiver. The receiver may be freshly built by
// NewHistogram or zero-valued (bucket storage is allocated as needed). On
// error the receiver holds partly decoded state and should be discarded.
func (h *Histogram) UnmarshalBinary(data []byte) error {
	return unmarshal("histogram", data, h.walk)
}

// walk is the collector's encoding: its complete mid-run state, including
// the mutable window width (rebinning doubles it) and every series. The
// dimensions and per-channel, per-switch, per-host and per-lane arrays are
// fixed by NewCollector and EnableVCs, so a reader checks them against the
// receiver instead of resizing it.
func (c *Collector) walk(w *wire.Codec) {
	version(w, collectorCodecVersion, "collector")
	wire.Int(w, &c.windowCycles)
	wire.Int(w, &c.maxWindows)
	wire.Int(w, &c.startCycle)
	wire.Int(w, &c.nextSample)
	dims := [3]int{c.channels, c.switches, c.hosts}
	for i := range dims {
		wire.Int(w, &dims[i])
	}
	if dims != [3]int{c.channels, c.switches, c.hosts} {
		w.Fail(fmt.Errorf("collector snapshot is for %d/%d/%d channels/switches/hosts, receiver has %d/%d/%d",
			dims[0], dims[1], dims[2], c.channels, c.switches, c.hosts))
	}
	wire.Array(w, c.busyPrev, wire.Int[int64])
	wire.Slice(w, &c.busySeries, (*wire.Codec).U32)
	wire.Int(w, &c.windows)
	wire.Array(w, c.peakBusyFrac, (*wire.Codec).F64)
	wire.Array(w, c.occSum, wire.Int[int64])
	wire.Array(w, c.occPeak, i32)
	wire.Array(w, c.poolSum, wire.Int[int64])
	wire.Array(w, c.poolPeak, i32)
	wire.Array(w, c.ejects, wire.Int[int64])
	wire.Array(w, c.reinjects, wire.Int[int64])
	wire.Array(w, c.backpressure, wire.Int[int64])
	wire.Int(w, &c.delivPrev)
	wire.Int(w, &c.dropPrev)
	wire.Int(w, &c.retransPrev)
	wire.Slice(w, &c.delivSeries, (*wire.Codec).U32)
	wire.Slice(w, &c.dropSeries, (*wire.Codec).U32)
	wire.Slice(w, &c.retransSeries, (*wire.Codec).U32)
	numVCs := c.numVCs
	wire.Int(w, &numVCs)
	if numVCs != c.numVCs {
		w.Fail(fmt.Errorf("collector snapshot has %d virtual channels, receiver has %d", numVCs, c.numVCs))
	}
	wire.Array(w, c.vcOccSum, wire.Int[int64])
	wire.Array(w, c.vcOccPeak, i32)
	wire.Slice(w, &c.vcOccSeries, (*wire.Codec).U32)
	wire.Slice(w, &c.vcCount, (*wire.Codec).U32)
	wire.Int(w, &c.samples)
}

// MarshalBinary serializes a mid-run collector's complete state.
func (c *Collector) MarshalBinary() ([]byte, error) { return wire.Marshal(lenSize, c.walk) }

// UnmarshalBinary restores a collector serialized by MarshalBinary into the
// receiver, which must have been built by NewCollector for the same network
// shape (and EnableVCs with the same lane count when the snapshot carries
// VC state); mismatched dimensions are an error. On error the receiver
// holds partly decoded state and should be discarded.
func (c *Collector) UnmarshalBinary(data []byte) error {
	return unmarshal("collector", data, c.walk)
}
