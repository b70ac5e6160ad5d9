package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"windar/internal/proto"
	"windar/internal/stable"
	"windar/internal/vclock"
	"windar/layer"
)

// normalized returns a copy of c with every empty byte field, vector and
// log replaced by nil: the v3 codec decodes an empty field as nil.
func normalized(c *Checkpoint) *Checkpoint {
	out := *c
	nilIfEmpty := func(b []byte) []byte {
		if len(b) == 0 {
			return nil
		}
		return b
	}
	out.AppImage = nilIfEmpty(out.AppImage)
	out.ProtoState = nilIfEmpty(out.ProtoState)
	if len(out.LastSendIndex) == 0 {
		out.LastSendIndex = nil
	}
	if len(out.LastDeliverIndex) == 0 {
		out.LastDeliverIndex = nil
	}
	if len(out.Log) == 0 {
		out.Log = nil
	} else {
		out.Log = append([]proto.LogItem(nil), out.Log...)
		for i := range out.Log {
			out.Log[i].Piggyback = nilIfEmpty(out.Log[i].Piggyback)
			out.Log[i].Payload = nilIfEmpty(out.Log[i].Payload)
		}
	}
	return &out
}

// codecCases covers every field shape the codec distinguishes.
func codecCases() map[string]*Checkpoint {
	wide := &Checkpoint{
		Rank: 63, Step: 4200, DeliveredCount: 1 << 40,
		AppImage:         bytes.Repeat([]byte{0xAB}, 5000),
		LastSendIndex:    vclock.New(64),
		LastDeliverIndex: vclock.New(64),
	}
	for i := range wide.LastSendIndex {
		wide.LastSendIndex[i] = int64(i * 1000)
		wide.LastDeliverIndex[i] = -int64(i) // negative entries round-trip too
	}
	for i := 0; i < 2000; i++ {
		wide.Log = append(wide.Log, proto.LogItem{
			Dest: i % 63, SendIndex: int64(i/63 + 1), Tag: int32(i % 7),
			Piggyback: []byte{0, byte(i)}, Payload: []byte(fmt.Sprintf("m%d", i)),
		})
	}
	return map[string]*Checkpoint{
		"sample": sampleCheckpoint(),
		"zero":   {},
		"nil vectors": {
			Rank: 1, Step: 3, AppImage: []byte("img"),
		},
		"empty vectors": {
			Rank: 1, Step: 3, AppImage: []byte{}, ProtoState: []byte{},
			LastSendIndex: vclock.Vec{}, LastDeliverIndex: vclock.Vec{},
			Log: []proto.LogItem{},
		},
		"log external": {
			Rank: 5, Step: 12, LogExternal: true,
			LastSendIndex: vclock.Vec{1, 2, 3}, LastDeliverIndex: vclock.Vec{4, 5, 6},
		},
		"span": {
			Rank: 0, Step: 2,
			Log: []proto.LogItem{
				{Dest: 1, SendIndex: 1, Span: layer.SpanContext{Trace: 1 << 62, Span: 77, Parent: 5}},
				{Dest: 1, SendIndex: 2, Span: layer.SpanContext{Parent: 9}},
				{Dest: 2, SendIndex: 1, Tag: -3, Payload: []byte{}},
			},
		},
		"negative fields": {
			Rank: -1, Step: -7, DeliveredCount: -9,
			Log: []proto.LogItem{{Dest: 3, SendIndex: -2, Tag: -2147483648}},
		},
		"wide log": wide,
	}
}

func TestCodecRoundTripCases(t *testing.T) {
	for name, c := range codecCases() {
		t.Run(name, func(t *testing.T) {
			data, err := Encode(c)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			if bound := sizeBound(c); len(data) > bound {
				t.Fatalf("encoded %d bytes, over the %d-byte bound", len(data), bound)
			}
			got, err := Decode(data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if want := normalized(c); !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
			}
			// Appending to a decoded field must not clobber its neighbour.
			if len(got.Log) > 0 {
				before := append([]byte(nil), data...)
				_ = append(got.Log[0].Piggyback, 0xFF, 0xFF, 0xFF)
				_ = append(got.AppImage, 0xFF, 0xFF, 0xFF)
				if !bytes.Equal(before, data) {
					t.Fatal("append to a decoded field wrote into the blob")
				}
			}
		})
	}
}

func TestDecodeTruncatedAtEveryOffset(t *testing.T) {
	for name, c := range codecCases() {
		if name == "wide log" {
			continue // quadratic; the sample cases cover every field boundary
		}
		data, _ := Encode(c)
		for cut := 0; cut < len(data); cut++ {
			if got, err := Decode(data[:cut]); err == nil {
				t.Fatalf("%s: truncation at %d of %d decoded as %+v", name, cut, len(data), got)
			}
		}
		if _, err := Decode(append(data[:len(data):len(data)], 0)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: trailing byte: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// v2Checkpoint mirrors the field layout the gob (v2) snapshot format
// encoded, so the test can produce a genuine v2 blob.
type v2Checkpoint struct {
	Rank             int
	Step             int
	AppImage         []byte
	ProtoState       []byte
	LastSendIndex    vclock.Vec
	LastDeliverIndex vclock.Vec
	DeliveredCount   int64
	Log              []proto.LogItem
	LogExternal      bool
}

func TestDecodeRejectsGobV2(t *testing.T) {
	c := sampleCheckpoint()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v2Checkpoint{
		Rank: c.Rank, Step: c.Step, AppImage: c.AppImage, ProtoState: c.ProtoState,
		LastSendIndex: c.LastSendIndex, LastDeliverIndex: c.LastDeliverIndex,
		DeliveredCount: c.DeliveredCount, Log: c.Log,
	}); err != nil {
		t.Fatal(err)
	}
	v2 := buf.Bytes()
	if _, err := Decode(v2); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("Decode(v2 gob) err = %v, want ErrSnapshotVersion", err)
	}

	// The same blob in a slot an older build published: the frame is
	// intact, so the load fails on the version, not the checksum.
	store := stable.NewStore(stable.Options{})
	store.Put(key(2), frameBytes(v2))
	_, ok, err := NewManager(store).LoadDurable(2)
	if ok || !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("LoadDurable(v2 slot) = %v, %v; want ErrSnapshotVersion", ok, err)
	}
}

// frameBytes frames an arbitrary payload the way Save frames an encoded
// checkpoint.
func frameBytes(payload []byte) []byte {
	out := []byte(frameMagic)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

func TestFrameMatchesPayloadEncoding(t *testing.T) {
	c := sampleCheckpoint()
	data, _ := Encode(c)
	if got := appendFrame([]byte("prefix"), c); !bytes.Equal(got[len("prefix"):], frameBytes(data)) {
		t.Fatal("appendFrame differs from framing the Encode output")
	}
}

// FuzzDecodeCheckpoint: Decode must never panic, and whatever it accepts
// must re-encode to a blob that decodes to the same checkpoint.
func FuzzDecodeCheckpoint(f *testing.F) {
	for name, c := range codecCases() {
		if name == "wide log" {
			continue
		}
		data, _ := Encode(c)
		f.Add(data)
	}
	f.Add([]byte{snapshotVersion})
	f.Add([]byte{2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Decode(data)
		if err != nil {
			return
		}
		again, _ := Encode(c)
		c2, err := Decode(again)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if !reflect.DeepEqual(normalized(c), c2) {
			t.Fatalf("re-encode changed the checkpoint:\n%+v\n%+v", c, c2)
		}
	})
}
