package metrics

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// lengthBomb builds a codec input that is well formed up to one length
// prefix, which then claims n elements the input does not hold: a version
// byte of 1, the given 8-byte words, and the 4-byte length.
func lengthBomb(n uint32, words ...int64) []byte {
	b := []byte{1}
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, uint64(w))
	}
	return binary.LittleEndian.AppendUint32(b, n)
}

// histogramBomb is 37 bytes: version, count, sum, min, max, then a bucket
// count of n.
func histogramBomb(n uint32) []byte { return lengthBomb(n, 0, 0, 0, 0) }

// collectorBomb matches fuzzCollector's dimensions and carries a valid
// busyPrev array, then claims n busy-series samples.
func collectorBomb(n uint32) []byte {
	b := lengthBomb(3, 64, 4, 0, 0, 3, 2, 2)
	for i := 0; i < 3; i++ {
		b = binary.LittleEndian.AppendUint64(b, 0)
	}
	return binary.LittleEndian.AppendUint32(b, n)
}

// fuzzCollector is the receiver every collector input decodes into.
func fuzzCollector() *Collector {
	c := NewCollector(Config{WindowCycles: 64, MaxWindows: 4}, 3, 2, 2)
	c.EnableVCs(2)
	return c
}

// runCollector drives fuzzCollector through enough windows to rebin, so
// every series and counter is non-trivial.
func runCollector() *Collector {
	c := fuzzCollector()
	c.Start(100)
	c.PrimeTraffic(10, 1, 0)
	for w := int64(0); w < 6; w++ {
		for ch := 0; ch < 3; ch++ {
			c.SampleLink(ch, w*int64(ch)*16)
		}
		c.SampleSwitchOcc(0, int(w))
		c.SampleSwitchOcc(1, 3)
		c.SampleHostPool(0, 512)
		c.SampleHostPool(1, int(w)*64)
		c.SampleVCOcc(0, int(w))
		c.SampleVCOcc(1, 2)
		c.SampleTraffic(10+5*w, 1+w, w)
		c.CloseWindow(c.NextSample())
	}
	c.Eject(1)
	c.Reinject(0)
	c.BackpressureStalls(1, 1)
	return c
}

// TestUnmarshalBoundsAllocation: a length prefix larger than the input
// must fail before it sizes an allocation. An unbounded decoder allocates
// 128 MiB for the 37-byte histogram input with a 2^24 bucket count, and 32
// GiB for a count of 2^32-1.
func TestUnmarshalBoundsAllocation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		data   []byte
		decode func([]byte) error
	}{
		{"histogram/len16M", histogramBomb(1 << 24), new(Histogram).UnmarshalBinary},
		{"histogram/lenMax", histogramBomb(math.MaxUint32), new(Histogram).UnmarshalBinary},
		{"collector/len16M", collectorBomb(1 << 24), fuzzCollector().UnmarshalBinary},
		{"collector/lenMax", collectorBomb(math.MaxUint32), fuzzCollector().UnmarshalBinary},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.decode(tc.data)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%d-byte input accepted", len(tc.data))
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Errorf("decoding %d bytes allocated %d bytes", len(tc.data), alloc)
			}
		})
	}
}

// FuzzHistogramUnmarshal feeds arbitrary bytes to Histogram.UnmarshalBinary:
// it must return an error or a histogram whose encoding is the input
// again. The checked-in corpus under testdata/fuzz holds the length-prefix
// inputs an unbounded decoder allocates for.
func FuzzHistogramUnmarshal(f *testing.F) {
	h := NewHistogram()
	for _, v := range []float64{0.5, 7, 300, 1e6} {
		h.Record(v)
	}
	seed, err := h.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Histogram
		if err := got.UnmarshalBinary(data); err != nil {
			return
		}
		again, err := got.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("round trip changed the bytes:\n% x\n% x", data, again)
		}
	})
}

// FuzzCollectorUnmarshal is FuzzHistogramUnmarshal's counterpart for a
// collector with three channels, two switches, two hosts and two lanes.
func FuzzCollectorUnmarshal(f *testing.F) {
	for _, c := range []*Collector{fuzzCollector(), runCollector()} {
		seed, err := c.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got := fuzzCollector()
		if err := got.UnmarshalBinary(data); err != nil {
			return
		}
		again, err := got.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("round trip changed the bytes:\n% x\n% x", data, again)
		}
	})
}
