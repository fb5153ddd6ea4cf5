// Package wire is the byte codec behind the simulator checkpoint and the
// metrics streaming state. A Codec is either a writer or a reader, and every
// primitive takes a pointer: a writer encodes the pointee, a reader decodes
// into it. A type therefore describes its encoding once, as a walk over its
// fields, and the same walk serializes and restores it.
//
// The encoding is little-endian. Integers of any width travel as 8-byte
// two's complement (Int); slices, queues, rings and arrays carry a 4-byte
// length prefix.
//
// A reader never trusts a length: every decoded length is bounded by the
// bytes left, because each element takes at least one byte, so a corrupt
// prefix fails instead of driving an allocation. Errors are sticky: after
// the first short read or failed check, primitives leave their targets
// unchanged, lengths read as zero (slices and queues decode empty), and Err
// keeps the first error.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Codec is one direction of the codec: a writer appending to a buffer or a
// reader consuming one.
type Codec struct {
	buf     []byte
	off     int
	reading bool
	err     error
}

// NewWriter returns a writer that appends to buf.
func NewWriter(buf []byte) *Codec {
	return &Codec{buf: buf}
}

// NewReader returns a reader over data.
func NewReader(data []byte) *Codec {
	return &Codec{buf: data, reading: true}
}

// Marshal runs walk on a fresh writer and returns its output and error.
func Marshal(walk func(*Codec)) ([]byte, error) {
	c := NewWriter(nil)
	walk(c)
	return c.Bytes(), c.Err()
}

// Unmarshal runs walk on a reader over data and returns Finish's error.
func Unmarshal(data []byte, walk func(*Codec)) error {
	c := NewReader(data)
	walk(c)
	return c.Finish()
}

// Reading reports whether c decodes rather than encodes.
func (c *Codec) Reading() bool { return c.reading }

// Bytes returns a writer's output.
func (c *Codec) Bytes() []byte { return c.buf }

// Err returns the first error, or nil.
func (c *Codec) Err() error { return c.err }

// Fail records err unless an earlier error is already set. Walks call it
// when a decoded value fails a check, so the first problem is the one
// reported.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// left returns the number of bytes a reader has not consumed.
func (c *Codec) left() int { return len(c.buf) - c.off }

// Finish returns a reader's first error, or an error when bytes are left
// over after the walk.
func (c *Codec) Finish() error {
	if c.err == nil && c.left() != 0 {
		c.err = fmt.Errorf("wire: %d trailing bytes after offset %d", c.left(), c.off)
	}
	return c.err
}

// take consumes n bytes, or fails and returns nil when fewer are left.
func (c *Codec) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n > c.left() {
		c.err = fmt.Errorf("wire: truncated at offset %d (need %d of %d bytes)", c.off, n, len(c.buf))
		return nil
	}
	b := c.buf[c.off : c.off+n : c.off+n]
	c.off += n
	return b
}

// U8 encodes or decodes one byte.
func (c *Codec) U8(v *uint8) {
	if !c.reading {
		c.buf = append(c.buf, *v)
	} else if b := c.take(1); b != nil {
		*v = b[0]
	}
}

// U32 encodes or decodes a 4-byte unsigned integer.
func (c *Codec) U32(v *uint32) {
	if !c.reading {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *v)
	} else if b := c.take(4); b != nil {
		*v = binary.LittleEndian.Uint32(b)
	}
}

// U64 encodes or decodes an 8-byte unsigned integer.
func (c *Codec) U64(v *uint64) {
	if !c.reading {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *v)
	} else if b := c.take(8); b != nil {
		*v = binary.LittleEndian.Uint64(b)
	}
}

// F64 encodes or decodes a float64 by its IEEE 754 bits.
func (c *Codec) F64(v *float64) {
	u := math.Float64bits(*v)
	c.U64(&u)
	if c.reading {
		*v = math.Float64frombits(u)
	}
}

// Bool encodes or decodes a bool as one byte; any non-zero byte reads true.
func (c *Codec) Bool(v *bool) {
	var u uint8
	if *v {
		u = 1
	}
	c.U8(&u)
	if c.reading {
		*v = u != 0
	}
}

// Blob encodes or decodes a byte string behind a 4-byte length. A decoded
// blob aliases the reader's input.
func (c *Codec) Blob(v *[]byte) {
	n := uint32(len(*v))
	c.U32(&n)
	if !c.reading {
		c.buf = append(c.buf, *v...)
	} else if b := c.take(int(n)); b != nil {
		*v = b
	}
}

// Int encodes or decodes a signed integer of any width as 8 bytes; a
// decoded value is truncated to T.
func Int[T ~int | ~int16 | ~int32 | ~int64](c *Codec, v *T) {
	u := uint64(int64(*v))
	c.U64(&u)
	if c.reading {
		*v = T(int64(u))
	}
}

// length writes n as a 4-byte prefix, or reads a length and bounds it by
// the bytes left. A failed reader returns zero.
func (c *Codec) length(n int) int {
	u := uint32(n)
	c.U32(&u)
	if !c.reading {
		return n
	}
	if c.err == nil && uint64(u) > uint64(c.left()) {
		c.err = fmt.Errorf("wire: length %d at offset %d exceeds the %d bytes left", u, c.off, c.left())
	}
	if c.err != nil {
		return 0
	}
	return int(u)
}

// Slice encodes or decodes a length-prefixed slice through elem. A reader
// allocates a fresh slice, or leaves nil for an empty one.
func Slice[S ~[]T, T any](c *Codec, s *S, elem func(*Codec, *T)) {
	n := c.length(len(*s))
	if c.reading {
		*s = nil
		if n > 0 {
			*s = make(S, n)
		}
	}
	for i := 0; i < n && c.err == nil; i++ {
		elem(c, &(*s)[i])
	}
}

// Queue encodes or decodes the live part q[head:] of a queue that pops by
// advancing head. A reader refills q from index 0, reusing its storage, and
// resets head.
func Queue[S ~[]T, T any](c *Codec, q *S, head *int, elem func(*Codec, *T)) {
	n := c.length(len(*q) - *head)
	if c.reading {
		*q = slices.Grow((*q)[:0], n)[:n]
		clear(*q)
		*head = 0
	}
	for i := 0; i < n && c.err == nil; i++ {
		elem(c, &(*q)[*head+i])
	}
}

// Ring encodes or decodes the n live entries of a power-of-two circular
// buffer, oldest first from buf[head] and wrapping at len(buf), under the
// length prefix Queue writes: a ring and a queue holding the same entries
// encode to the same bytes. A reader refills the ring from index 0, reusing
// its storage or growing it to the next power of two that holds the
// entries, and resets head.
func Ring[S ~[]T, T any](c *Codec, buf *S, head, n *int, elem func(*Codec, *T)) {
	cnt := c.length(*n)
	if c.reading {
		if cnt > len(*buf) {
			size := 1
			for size < cnt {
				size <<= 1
			}
			*buf = make(S, size)
		}
		clear(*buf)
		*head, *n = 0, cnt
	}
	mask := len(*buf) - 1
	for i := 0; i < cnt && c.err == nil; i++ {
		elem(c, &(*buf)[(*head+i)&mask])
	}
}

// Array encodes or decodes a slice whose length the reader already knows
// (one entry per link, port, lane or host): the stored length must match
// len(a), and elements decode in place.
func Array[S ~[]T, T any](c *Codec, a S, elem func(*Codec, *T)) {
	if n := c.length(len(a)); c.err == nil && n != len(a) {
		c.err = fmt.Errorf("wire: %d elements at offset %d where %d are expected", n, c.off, len(a))
	}
	for i := 0; i < len(a) && c.err == nil; i++ {
		elem(c, &a[i])
	}
}
