package wire

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
)

// record exercises every primitive and helper; walk is its one encoding.
type record struct {
	u8    uint8
	u32   uint32
	u64   uint64
	f64   float64
	ok    bool
	blob  []byte
	i     int
	i16   int16
	list  []int32
	queue []uint32
	head  int
	fixed []float64
}

func (r *record) walk(c *Codec) {
	c.U8(&r.u8)
	c.U32(&r.u32)
	c.U64(&r.u64)
	c.F64(&r.f64)
	c.Bool(&r.ok)
	c.Blob(&r.blob)
	Int(c, &r.i)
	Int(c, &r.i16)
	Slice(c, &r.list, Int[int32])
	Queue(c, &r.queue, &r.head, (*Codec).U32)
	Array(c, r.fixed, (*Codec).F64)
}

func sample() *record {
	return &record{
		u8: 7, u32: 1 << 31, u64: math.MaxUint64, f64: -0.5, ok: true,
		blob: []byte("abc"), i: -3, i16: -300, list: []int32{-1, 2},
		queue: []uint32{9, 8, 7}, head: 1, fixed: []float64{1.5, math.Inf(1)},
	}
}

func TestRoundTrip(t *testing.T) {
	for _, lenSize := range []int{4, 8} {
		w := NewWriter(nil, lenSize)
		in := sample()
		in.walk(w)
		if w.Err() != nil {
			t.Fatal(w.Err())
		}
		out := &record{fixed: make([]float64, 2), queue: []uint32{1, 2, 3, 4}, head: 3}
		r := NewReader(w.Bytes(), lenSize)
		out.walk(r)
		if err := r.Finish(); err != nil {
			t.Fatalf("lenSize %d: %v", lenSize, err)
		}
		if out.u8 != in.u8 || out.u32 != in.u32 || out.u64 != in.u64 || out.f64 != in.f64 ||
			!out.ok || !bytes.Equal(out.blob, in.blob) || out.i != in.i || out.i16 != in.i16 {
			t.Errorf("lenSize %d: scalars differ: %+v", lenSize, out)
		}
		if len(out.list) != 2 || out.list[0] != -1 || out.list[1] != 2 {
			t.Errorf("lenSize %d: slice %v", lenSize, out.list)
		}
		if out.head != 0 || len(out.queue) != 2 || out.queue[0] != 8 || out.queue[1] != 7 {
			t.Errorf("lenSize %d: queue %v head %d, want [8 7] head 0", lenSize, out.queue, out.head)
		}
		if out.fixed[0] != 1.5 || !math.IsInf(out.fixed[1], 1) {
			t.Errorf("lenSize %d: array %v", lenSize, out.fixed)
		}
	}
}

// TestLengthPrefixWidth pins the two prefix widths byte for byte.
func TestLengthPrefixWidth(t *testing.T) {
	s := []uint32{5}
	for _, tc := range []struct {
		lenSize int
		want    []byte
	}{
		{4, []byte{1, 0, 0, 0, 5, 0, 0, 0}},
		{8, []byte{1, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0}},
	} {
		w := NewWriter(nil, tc.lenSize)
		Slice(w, &s, (*Codec).U32)
		if !bytes.Equal(w.Bytes(), tc.want) {
			t.Errorf("lenSize %d: % x, want % x", tc.lenSize, w.Bytes(), tc.want)
		}
	}
}

// TestEmptySliceDecodesNil keeps nil-versus-empty stable across a round
// trip: an empty slice reads back as nil.
func TestEmptySliceDecodesNil(t *testing.T) {
	w := NewWriter(nil, 4)
	empty := []int64{}
	Slice(w, &empty, Int[int64])
	got := []int64{1}
	r := NewReader(w.Bytes(), 4)
	Slice(r, &got, Int[int64])
	if err := r.Finish(); err != nil || got != nil {
		t.Errorf("got %v, %v; want nil slice", got, err)
	}
}

// TestLengthBoundedByInput is the allocation guard: a length prefix larger
// than the bytes left fails before any allocation it would size.
func TestLengthBoundedByInput(t *testing.T) {
	for _, data := range [][]byte{
		{0xff, 0xff, 0xff, 0xff},
		{0, 0, 0, 1, 1, 2, 3},
	} {
		var s []uint64
		r := NewReader(data, 4)
		Slice(r, &s, (*Codec).U64)
		if r.Err() == nil || !strings.Contains(r.Err().Error(), "exceeds") || s != nil {
			t.Errorf("% x: got %d elements, err %v", data, len(s), r.Err())
		}
	}
	neg := NewWriter(nil, 8)
	n := int64(-1)
	Int(neg, &n)
	var s []uint8
	r := NewReader(neg.Bytes(), 8)
	Slice(r, &s, (*Codec).U8)
	if r.Err() == nil {
		t.Error("negative length accepted")
	}
}

func TestReaderErrors(t *testing.T) {
	w := NewWriter(nil, 8)
	sample().walk(w)
	full := w.Bytes()

	r := NewReader(full[:len(full)-3], 8)
	out := &record{fixed: make([]float64, 2)}
	out.walk(r)
	if err := r.Finish(); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("truncated input: %v", err)
	}

	r = NewReader(append(append([]byte(nil), full...), 0), 8)
	out = &record{fixed: make([]float64, 2)}
	out.walk(r)
	if err := r.Finish(); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("trailing byte: %v", err)
	}

	r = NewReader(full, 8)
	out = &record{fixed: make([]float64, 3)}
	out.walk(r)
	if err := r.Finish(); err == nil || !strings.Contains(err.Error(), "expected") {
		t.Errorf("array length mismatch: %v", err)
	}
}

// TestStickyError: after the first failure reads leave their targets
// alone, and Fail keeps the first error.
func TestStickyError(t *testing.T) {
	r := NewReader([]byte{1, 2}, 8)
	v := uint32(42)
	r.U32(&v)
	first := r.Err()
	if first == nil || v != 42 {
		t.Fatalf("short read: v=%d err=%v", v, first)
	}
	b := uint8(9)
	r.U8(&b)
	r.Fail(nil)
	if b != 9 || r.Err() != first {
		t.Errorf("read after failure changed state: b=%d err=%v", b, r.Err())
	}
}

// TestRingMatchesQueue pins the ring walk to the queue encoding: a ring
// whose live entries wrap past the end of its buffer writes exactly the
// bytes Queue writes for the same entries, and a reader whose ring is
// smaller than the decoded count grows it to the next power of two.
func TestRingMatchesQueue(t *testing.T) {
	entries := []uint32{11, 12, 13, 14, 15, 16}
	// Eight slots, head at 5: entries sit in slots 5, 6, 7, 0, 1, 2.
	buf := make([]uint32, 8)
	head, n := 5, len(entries)
	for i, v := range entries {
		buf[(head+i)&7] = v
	}
	queue := append([]uint32{99, 98}, entries...)
	queueHead := 2
	for _, lenSize := range []int{4, 8} {
		rw := NewWriter(nil, lenSize)
		Ring(rw, &buf, &head, &n, (*Codec).U32)
		qw := NewWriter(nil, lenSize)
		Queue(qw, &queue, &queueHead, (*Codec).U32)
		if rw.Err() != nil || qw.Err() != nil || !bytes.Equal(rw.Bytes(), qw.Bytes()) {
			t.Fatalf("lenSize %d: ring wrote % x, queue % x", lenSize, rw.Bytes(), qw.Bytes())
		}

		// Decode into a four-slot ring with a stale entry and a wrapped
		// head: the six entries do not fit, so the ring grows to eight.
		small, smallHead, smallN := []uint32{7, 7, 7, 7}, 3, 1
		r := NewReader(rw.Bytes(), lenSize)
		Ring(r, &small, &smallHead, &smallN, (*Codec).U32)
		if err := r.Finish(); err != nil {
			t.Fatalf("lenSize %d: %v", lenSize, err)
		}
		want := []uint32{11, 12, 13, 14, 15, 16, 0, 0}
		if smallHead != 0 || smallN != n || len(small) != 8 || !slices.Equal(small, want) {
			t.Errorf("lenSize %d: decoded ring %v head %d n %d, want %v head 0 n %d",
				lenSize, small, smallHead, smallN, want, n)
		}

		// A ring that holds the entries is reused in place and cleared.
		big := []uint32{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}
		bigHead, bigN := 9, 0
		r = NewReader(rw.Bytes(), lenSize)
		Ring(r, &big, &bigHead, &bigN, (*Codec).U32)
		if err := r.Finish(); err != nil || len(big) != 16 || bigHead != 0 || bigN != n ||
			!slices.Equal(big[:n], entries) || big[n] != 0 {
			t.Errorf("lenSize %d: decoded into 16 slots %v head %d n %d, err %v", lenSize, big, bigHead, bigN, err)
		}
	}
}
