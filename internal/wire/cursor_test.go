package wire

import (
	"encoding/binary"
	"reflect"
	"testing"

	"windar/internal/vclock"
)

func TestCursorReadsEveryPrimitive(t *testing.T) {
	var b []byte
	b = append(b, 7)
	b = binary.AppendUvarint(b, 300)
	b = binary.AppendVarint(b, -5)
	b = binary.AppendUvarint(b, 3)
	b = append(b, "abc"...)
	b = binary.AppendUvarint(b, 0)
	b = AppendVec(b, vclock.Vec{1, -2, 3})
	b = AppendVec(b, nil)

	c := NewCursor(b)
	if got := c.Byte(); got != 7 {
		t.Fatalf("Byte = %d", got)
	}
	if got := c.Uvarint(); got != 300 {
		t.Fatalf("Uvarint = %d", got)
	}
	if got := c.Varint(); got != -5 {
		t.Fatalf("Varint = %d", got)
	}
	abc := c.Bytes()
	if string(abc) != "abc" || cap(abc) != 3 {
		t.Fatalf("Bytes = %q (cap %d), want \"abc\" capped at 3", abc, cap(abc))
	}
	if got := c.Bytes(); got != nil {
		t.Fatalf("empty Bytes = %v, want nil", got)
	}
	if got := c.Vec(); !reflect.DeepEqual(got, vclock.Vec{1, -2, 3}) {
		t.Fatalf("Vec = %v", got)
	}
	if got := c.Vec(); got != nil {
		t.Fatalf("empty Vec = %v, want nil", got)
	}
	if !c.OK() || c.Remaining() != 0 {
		t.Fatalf("OK=%v Remaining=%d after reading everything", c.OK(), c.Remaining())
	}

	// The first failed read sticks: later reads return zero values even
	// where bytes remain.
	c = NewCursor([]byte{5, 'x', 1})
	if got := c.Bytes(); got != nil || c.OK() {
		t.Fatalf("over-long Bytes = %q, OK=%v", got, c.OK())
	}
	if got := c.Byte(); got != 0 || c.OK() {
		t.Fatalf("Byte after failure = %d, OK=%v", got, c.OK())
	}
}
