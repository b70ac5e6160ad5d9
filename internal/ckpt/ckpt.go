// Package ckpt defines checkpoint records and their storage. A checkpoint
// is everything Algorithm 1 line 33 saves: the process image (application
// snapshot), the sender message log, and the protocol's counter vectors —
// plus the step index so the harness knows where to resume the
// application.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"windar/internal/proto"
	"windar/internal/stable"
	"windar/internal/vclock"
	"windar/internal/wire"
)

// Checkpoint is one rank's durable recovery point.
type Checkpoint struct {
	Rank int
	// Step is the application step index at which execution resumes.
	Step int
	// AppImage is the application's Snapshot.
	AppImage []byte
	// ProtoState is the logging protocol's Snapshot (e.g. TDI's
	// depend_interval vector, TAG's antecedence graph).
	ProtoState []byte
	// LastSendIndex / LastDeliverIndex are the per-channel counters.
	LastSendIndex    vclock.Vec
	LastDeliverIndex vclock.Vec
	// DeliveredCount is the rank's state-interval index (total messages
	// delivered) at the checkpoint.
	DeliveredCount int64
	// Log is the retained sender log (messages peers may still need).
	// Empty when LogExternal is set.
	Log []proto.LogItem
	// LogExternal marks an incremental checkpoint: the sender log is
	// not in the image because every item is already durable under its
	// own stable-store key (the harness's slog/ keyspace) and the
	// restorer rebuilds it from there. This keeps the checkpoint blob
	// O(app state) instead of O(app state + retained log).
	LogExternal bool
}

// Snapshot format v3. An encoded checkpoint is
//
//	byte    version (snapshotVersion)
//	byte    flags (flagLogExternal)
//	varint  rank | varint step | varint deliveredCount
//	uvarint len | appImage
//	uvarint len | protoState
//	vec     lastSendIndex | vec lastDeliverIndex   (wire.AppendVec)
//	uvarint item count | items                     (proto.AppendLogItem)
//
// An empty byte field or vector decodes as nil. Earlier builds wrote
// encoding/gob streams (v2); their first byte is a gob message length,
// never 3, so they fail the version check rather than misparse.
const snapshotVersion = 3

// flagLogExternal is the flags bit for Checkpoint.LogExternal.
const flagLogExternal = 1 << 0

// ErrSnapshotVersion reports a blob in a snapshot format this build does
// not read — notably a gob-encoded (v2) checkpoint written by an older
// build. Such blobs are rejected, not converted.
var ErrSnapshotVersion = errors.New("ckpt: unsupported snapshot version")

// ErrCorrupt reports a v3 blob that is truncated or malformed.
var ErrCorrupt = errors.New("ckpt: corrupt checkpoint")

// AppendEncode appends c's encoding to buf and returns the extended
// slice.
//
//windar:hotpath
func AppendEncode(buf []byte, c *Checkpoint) []byte {
	var flags byte
	if c.LogExternal {
		flags |= flagLogExternal
	}
	buf = append(buf, snapshotVersion, flags)
	buf = binary.AppendVarint(buf, int64(c.Rank))
	buf = binary.AppendVarint(buf, int64(c.Step))
	buf = binary.AppendVarint(buf, c.DeliveredCount)
	buf = binary.AppendUvarint(buf, uint64(len(c.AppImage)))
	buf = append(buf, c.AppImage...)
	buf = binary.AppendUvarint(buf, uint64(len(c.ProtoState)))
	buf = append(buf, c.ProtoState...)
	buf = wire.AppendVec(buf, c.LastSendIndex)
	buf = wire.AppendVec(buf, c.LastDeliverIndex)
	buf = binary.AppendUvarint(buf, uint64(len(c.Log)))
	for i := range c.Log {
		buf = proto.AppendLogItem(buf, &c.Log[i])
	}
	return buf
}

// sizeBound is an upper bound on len(AppendEncode(nil, c)), so an
// encode sizes its buffer once.
func sizeBound(c *Checkpoint) int {
	n := 2 + 6*binary.MaxVarintLen64 + len(c.AppImage) + len(c.ProtoState) +
		binary.MaxVarintLen64*(len(c.LastSendIndex)+len(c.LastDeliverIndex))
	for i := range c.Log {
		n += proto.LogItemOverhead + len(c.Log[i].Piggyback) + len(c.Log[i].Payload)
	}
	return n
}

// Encode serializes c into a fresh buffer. The v3 codec cannot fail;
// the error result is reserved.
func Encode(c *Checkpoint) ([]byte, error) {
	return AppendEncode(make([]byte, 0, sizeBound(c)), c), nil
}

// Decode parses a checkpoint produced by Encode. The byte fields and
// the log items' piggybacks and payloads alias data (capped, so an
// append to one cannot overwrite its neighbour), so the caller must not
// modify data afterwards. A blob of another snapshot version returns an
// error matching ErrSnapshotVersion; a damaged one, ErrCorrupt. Decode
// never panics.
func Decode(data []byte) (*Checkpoint, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty blob", ErrCorrupt)
	}
	if data[0] != snapshotVersion {
		return nil, fmt.Errorf("%w %d (this build reads %d)", ErrSnapshotVersion, data[0], snapshotVersion)
	}
	r := wire.NewCursor(data[1:])
	flags := r.Byte()
	if flags&^flagLogExternal != 0 {
		r.Fail()
	}
	c := &Checkpoint{LogExternal: flags&flagLogExternal != 0}
	c.Rank = int(r.Varint())
	c.Step = int(r.Varint())
	c.DeliveredCount = r.Varint()
	c.AppImage = r.Bytes()
	c.ProtoState = r.Bytes()
	c.LastSendIndex = r.Vec()
	c.LastDeliverIndex = r.Vec()
	// Every item takes at least six bytes, which bounds the allocation a
	// corrupt count can ask for.
	if n := r.Uvarint(); n > 0 && r.OK() {
		if n > uint64(r.Remaining())/6 {
			return nil, fmt.Errorf("%w: %d log items in %d bytes", ErrCorrupt, n, r.Remaining())
		}
		c.Log = make([]proto.LogItem, n)
		for i := range c.Log {
			c.Log[i] = proto.ReadLogItem(&r)
		}
	}
	if !r.OK() {
		return nil, fmt.Errorf("%w: truncated or malformed (%d bytes)", ErrCorrupt, len(data))
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Remaining())
	}
	return c, nil
}

// Checkpoint blobs are framed so damage is detectable rather than
// silently wrong: magic, u32 little-endian payload length, u32 CRC-32
// (IEEE) of the payload, payload. Decode rejects a truncated encoding by
// itself, but a flipped byte inside a field can still parse; the
// checksum catches that, and the length names a torn write as one.
const frameMagic = "WCKP1"

const frameHeader = len(frameMagic) + 4 + 4

// appendFrame appends c's framed encoding to buf. The header is
// reserved first and filled in once the payload is encoded, so the
// payload is written exactly once.
func appendFrame(buf []byte, c *Checkpoint) []byte {
	start := len(buf)
	buf = append(buf, frameMagic...)
	buf = append(buf, make([]byte, 8)...)
	buf = AppendEncode(buf, c)
	payload := buf[start+frameHeader:]
	binary.LittleEndian.PutUint32(buf[start+len(frameMagic):], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+len(frameMagic)+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// unframe verifies the header and returns the payload.
func unframe(data []byte) ([]byte, error) {
	if len(data) < frameHeader || string(data[:len(frameMagic)]) != frameMagic {
		return nil, fmt.Errorf("ckpt: blob missing frame header (%d bytes)", len(data))
	}
	plen := int(binary.LittleEndian.Uint32(data[len(frameMagic):]))
	sum := binary.LittleEndian.Uint32(data[len(frameMagic)+4:])
	payload := data[frameHeader:]
	if len(payload) != plen {
		return nil, fmt.Errorf("ckpt: torn blob: frame promises %d payload bytes, have %d", plen, len(payload))
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("ckpt: blob checksum mismatch")
	}
	return payload, nil
}

// Manager stores one current checkpoint per rank on stable storage.
// Checkpointing is independent and uncoordinated (each rank overwrites its
// own slot), matching the paper's independent checkpointing property.
//
// The manager separates a checkpoint's two lives. Stage records the
// in-memory snapshot the instant it is taken, so a same-process recovery
// (simulated goroutine kill) always restores the newest state interval —
// matching the trace recorder, which logs the checkpoint event at
// snapshot time. Save then makes the snapshot durable in the background:
// write-temp-rename under the backend's atomic contract, with a
// staleness guard so two incarnations' writers can never regress the
// slot. Only after Save returns may CHECKPOINT_ADVANCE be announced,
// because peers discard logs on its strength.
type Manager struct {
	store *stable.Store

	mu          sync.Mutex
	staged      map[int]*Checkpoint
	durableStep map[int]int
	saving      map[int]*saveSlot
}

// saveSlot serializes one rank's durable writes and holds its keys and
// encode buffer. Store.Put copies the value, so the buffer is reused by
// every Save of the rank.
type saveSlot struct {
	mu       sync.Mutex
	key, tmp string
	buf      []byte
}

// NewManager returns a Manager writing to store.
func NewManager(store *stable.Store) *Manager {
	return &Manager{
		store:       store,
		staged:      make(map[int]*Checkpoint),
		durableStep: make(map[int]int),
		saving:      make(map[int]*saveSlot),
	}
}

// Store returns the underlying stable store.
func (m *Manager) Store() *stable.Store { return m.store }

func key(rank int) string { return fmt.Sprintf("ckpt/%08d", rank) }

// Stage records c as rank c.Rank's newest checkpoint without touching
// stable storage. The caller must treat c as immutable afterwards.
func (m *Manager) Stage(c *Checkpoint) {
	m.mu.Lock()
	if cur := m.staged[c.Rank]; cur == nil || c.Step >= cur.Step {
		m.staged[c.Rank] = c
	}
	m.mu.Unlock()
}

// Save durably records c as rank c.Rank's current checkpoint. The write
// is crash-atomic: the framed blob lands under a temp key and an atomic
// rename publishes it, so a crash at any instant leaves either the old
// checkpoint or the new one, never a torn blob. Saves of stale
// checkpoints (an older incarnation's writer finishing late) are
// silently skipped.
func (m *Manager) Save(c *Checkpoint) error {
	m.mu.Lock()
	slot := m.saving[c.Rank]
	if slot == nil {
		slot = &saveSlot{key: key(c.Rank)}
		slot.tmp = slot.key + ".tmp"
		m.saving[c.Rank] = slot
	}
	m.mu.Unlock()

	slot.mu.Lock()
	defer slot.mu.Unlock()
	m.mu.Lock()
	prev, saved := m.durableStep[c.Rank]
	m.mu.Unlock()
	if saved && prev >= c.Step {
		return nil
	}

	slot.buf = appendFrame(slot.buf[:0], c)
	if err := m.store.Put(slot.tmp, slot.buf); err != nil {
		return fmt.Errorf("ckpt: save rank %d: %w", c.Rank, err)
	}
	if err := m.store.Rename(slot.tmp, slot.key); err != nil {
		return fmt.Errorf("ckpt: publish rank %d: %w", c.Rank, err)
	}
	m.mu.Lock()
	m.durableStep[c.Rank] = c.Step
	m.mu.Unlock()
	return nil
}

// Load returns rank's current checkpoint: the staged in-memory snapshot
// when one exists (same-process recovery restores the newest state
// interval even if its durable write is still in flight), otherwise the
// durable blob. ok is false if the rank never checkpointed — recovery
// then restarts from the initial state.
func (m *Manager) Load(rank int) (*Checkpoint, bool, error) {
	m.mu.Lock()
	staged := m.staged[rank]
	m.mu.Unlock()
	if staged != nil {
		return staged, true, nil
	}
	return m.LoadDurable(rank)
}

// LoadDurable returns rank's checkpoint from stable storage only — what
// a freshly restarted process would see.
func (m *Manager) LoadDurable(rank int) (*Checkpoint, bool, error) {
	data, ok := m.store.Get(key(rank))
	if !ok {
		return nil, false, nil
	}
	payload, err := unframe(data)
	if err != nil {
		return nil, false, err
	}
	c, err := Decode(payload)
	if err != nil {
		return nil, false, err
	}
	if c.Rank != rank {
		return nil, false, fmt.Errorf("ckpt: slot for rank %d holds checkpoint of rank %d", rank, c.Rank)
	}
	return c, true, nil
}
