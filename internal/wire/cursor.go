package wire

import (
	"encoding/binary"

	"windar/internal/vclock"
)

// Cursor reads this package's varint primitives from the front of a
// byte slice, for record decoders written in its idiom (the checkpoint
// snapshot, sender-log items). The first read that runs out of bytes or
// meets a malformed varint marks the cursor bad, and every later read
// returns a zero value, so a decoder reads all its fields and checks OK
// once. A Cursor never panics on malformed input.
type Cursor struct {
	b   []byte
	off int
	bad bool
}

// NewCursor returns a cursor at the start of b.
func NewCursor(b []byte) Cursor { return Cursor{b: b} }

// OK reports whether every read so far succeeded.
func (c *Cursor) OK() bool { return !c.bad }

// Fail marks the cursor bad, for a decoder that rejects a well-formed
// but invalid value.
func (c *Cursor) Fail() { c.bad = true }

// Remaining returns the number of unread bytes.
func (c *Cursor) Remaining() int { return len(c.b) - c.off }

// Byte reads one byte.
func (c *Cursor) Byte() byte {
	if c.bad || c.off == len(c.b) {
		c.bad = true
		return 0
	}
	c.off++
	return c.b[c.off-1]
}

// Uvarint reads an unsigned varint.
func (c *Cursor) Uvarint() uint64 {
	if c.bad {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.bad = true
		return 0
	}
	c.off += n
	return v
}

// Varint reads a signed varint.
func (c *Cursor) Varint() int64 {
	if c.bad {
		return 0
	}
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		c.bad = true
		return 0
	}
	c.off += n
	return v
}

// Bytes reads a uvarint length and that many bytes. The result aliases
// the cursor's slice, with its capacity capped so an append to it cannot
// overwrite the bytes that follow; an empty field reads as nil.
func (c *Cursor) Bytes() []byte {
	l := c.Uvarint()
	if c.bad || l > uint64(c.Remaining()) {
		c.bad = true
		return nil
	}
	start := c.off
	c.off += int(l)
	if l == 0 {
		return nil
	}
	return c.b[start:c.off:c.off]
}

// Vec reads a vector written by AppendVec into fresh storage; an empty
// vector reads as nil.
func (c *Cursor) Vec() vclock.Vec {
	if c.bad {
		return nil
	}
	v, n, err := ReadVec(c.b[c.off:])
	if err != nil {
		c.bad = true
		return nil
	}
	c.off += n
	return v
}
