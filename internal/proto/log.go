package proto

import (
	"encoding/binary"
	"fmt"
	"sort"

	"windar/internal/wire"
	"windar/layer"
)

// LogItem is one sender-logged application message: destination, sending
// index, the original tag and piggyback, and the raw payload (Algorithm 1
// line 12). The logged piggyback is retransmitted verbatim with the
// message during a peer's recovery ("every resent message should be
// piggybacked with the logged vector ... as in normal execution mode").
// The span context rides along for the same reason: a resend must carry
// the original send's causal identity, not a fresh one.
type LogItem struct {
	Dest      int
	SendIndex int64
	Tag       int32
	Piggyback []byte
	Payload   []byte
	Span      layer.SpanContext
}

// itemFlagSpan marks an encoded item that carries a span context.
const itemFlagSpan = 1 << 0

// LogItemOverhead bounds the bytes AppendLogItem writes for an item
// beyond its piggyback and payload (seven varints and a flag byte), so
// an encoder can size its buffer once.
const LogItemOverhead = 7*binary.MaxVarintLen64 + 1

// AppendLogItem appends the encoding of it to buf. It is the one log-item
// codec: a checkpoint's inline log and the durable sender-log mirror
// (one stable key per item) both write it. The span context is written
// only when set, so an untraced item pays one flag byte for it.
//
//	uvarint dest | varint sendIndex | varint tag | flags
//	[uvarint trace | uvarint span | uvarint parent]   (flags&itemFlagSpan)
//	uvarint len | piggyback | uvarint len | payload
//
//windar:hotpath
func AppendLogItem(buf []byte, it *LogItem) []byte {
	buf = binary.AppendUvarint(buf, uint64(it.Dest))
	buf = binary.AppendVarint(buf, it.SendIndex)
	buf = binary.AppendVarint(buf, int64(it.Tag))
	if it.Span.IsZero() {
		buf = append(buf, 0)
	} else {
		buf = append(buf, itemFlagSpan)
		buf = binary.AppendUvarint(buf, it.Span.Trace)
		buf = binary.AppendUvarint(buf, it.Span.Span)
		buf = binary.AppendUvarint(buf, it.Span.Parent)
	}
	buf = binary.AppendUvarint(buf, uint64(len(it.Piggyback)))
	buf = append(buf, it.Piggyback...)
	buf = binary.AppendUvarint(buf, uint64(len(it.Payload)))
	return append(buf, it.Payload...)
}

// ReadLogItem decodes the item AppendLogItem wrote at c's position.
// Piggyback and Payload alias the cursor's bytes (see wire.Cursor.Bytes).
// Malformed input marks c bad, never panics; the caller checks c.OK.
func ReadLogItem(c *wire.Cursor) LogItem {
	var it LogItem
	it.Dest = int(c.Uvarint())
	it.SendIndex = c.Varint()
	it.Tag = int32(c.Varint())
	flags := c.Byte()
	if flags&^itemFlagSpan != 0 {
		c.Fail()
	}
	if flags&itemFlagSpan != 0 {
		it.Span = layer.SpanContext{Trace: c.Uvarint(), Span: c.Uvarint(), Parent: c.Uvarint()}
	}
	it.Piggyback = c.Bytes()
	it.Payload = c.Bytes()
	if !c.OK() {
		return LogItem{}
	}
	return it
}

// logChunkItems is the fixed chunk capacity of the per-destination item
// store. 256 items keep each chunk (~24 KiB) under the runtime's large
// allocation threshold, so a growing log never pays the
// allocate-copy-zero cycle of a doubling slice: Append touches only the
// chunk it fills.
const logChunkItems = 256

// destLog is one destination's items, in send-index order, stored as a
// list of fixed-capacity chunks. Only the last chunk ever has spare
// capacity; Append fills it and starts a new one when it is full. The
// first head items of chunks[0] are released (and zeroed): a partial
// release advances head instead of copying the survivors, and a chunk
// whose items are all released leaves the list at once, so every chunk
// in it holds at least one live item.
type destLog struct {
	chunks [][]LogItem
	head   int
	count  int
}

// last returns a pointer to the newest item, or nil when empty.
func (d *destLog) last() *LogItem {
	if n := len(d.chunks); n > 0 {
		c := d.chunks[n-1]
		return &c[len(c)-1]
	}
	return nil
}

// live returns chunk i's unreleased items.
func (d *destLog) live(i int) []LogItem {
	if i == 0 {
		return d.chunks[0][d.head:]
	}
	return d.chunks[i]
}

// Log is a sender-based message log, organised per destination with items
// in send-index order. The zero value is not usable; call NewLog.
//
// The log recycles its storage. Release zeroes the slots it frees, so
// the payload and piggyback memory they referenced is dropped at once,
// and a chunk with no live items goes to a spare pool that later
// appends, to any destination, draw from. The pool holds at most one
// chunk per destination, and an emptied destination keeps its (chunk
// free) entry; both are bounded by the number of ranks. With checkpoints
// releasing what was sent, the steady state appends and releases without
// allocating.
type Log struct {
	perDest map[int]*destLog
	spare   [][]LogItem // empty chunks with zeroed backing arrays
	bytes   int64
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{perDest: make(map[int]*destLog)} }

// Append adds item. Items for one destination must be appended in strictly
// increasing send-index order; the protocol assigns indices sequentially
// so a violation is a harness bug and panics.
//
//windar:hotpath
func (l *Log) Append(item LogItem) {
	d := l.perDest[item.Dest]
	if d == nil {
		d = &destLog{} //windar:allow hotpath — once per destination, not per message
		l.perDest[item.Dest] = d
	}
	if last := d.last(); last != nil && last.SendIndex >= item.SendIndex {
		panicAppendOrder(item.Dest, item.SendIndex, last.SendIndex)
	}
	n := len(d.chunks)
	if n == 0 || len(d.chunks[n-1]) == cap(d.chunks[n-1]) {
		d.chunks = append(d.chunks, l.newChunk()) //windar:allow hotpath — amortised: the chunk list grows to the log's peak chunk count once
		n++
	}
	d.chunks[n-1] = append(d.chunks[n-1], item)
	d.count++
	l.bytes += int64(len(item.Payload) + len(item.Piggyback))
}

// newChunk returns an empty chunk, from the spare pool when it has one.
func (l *Log) newChunk() []LogItem {
	if n := len(l.spare); n > 0 {
		c := l.spare[n-1]
		l.spare[n-1] = nil
		l.spare = l.spare[:n-1]
		return c
	}
	return allocChunk()
}

// allocChunk keeps the chunk allocation out of Append's hot span: it
// runs once per logChunkItems appends at most, and only while the log
// is growing past its peak.
//
//go:noinline
func allocChunk() []LogItem { return make([]LogItem, 0, logChunkItems) }

// panicAppendOrder keeps the fmt boxing out of Append's hot span.
//
//go:noinline
func panicAppendOrder(dest int, idx, prev int64) {
	panic(fmt.Sprintf("proto: log append out of order: dest %d index %d after %d",
		dest, idx, prev))
}

// Release discards every item for dest with SendIndex <= upto, returning
// how many were removed. This implements the CHECKPOINT_ADVANCE rule
// (Algorithm 1 line 39): once the receiver has checkpointed past a
// message, it can never be replayed and its log is dead weight.
//
//windar:hotpath
func (l *Log) Release(dest int, upto int64) int {
	d := l.perDest[dest]
	if d == nil {
		return 0
	}
	// d.head indexes chunks[drop]: a chunk is only dropped once all of
	// it is released, and the next one starts at its first item.
	released, drop := 0, 0
	for drop < len(d.chunks) {
		live := d.chunks[drop][d.head:]
		cut := sort.Search(len(live), func(i int) bool { return live[i].SendIndex > upto })
		if cut == 0 {
			break
		}
		for _, it := range live[:cut] {
			l.bytes -= int64(len(it.Payload) + len(it.Piggyback))
		}
		clear(live[:cut])
		released += cut
		if cut < len(live) {
			d.head += cut
			break
		}
		l.recycle(d.chunks[drop])
		drop++
		d.head = 0
	}
	if drop > 0 {
		n := copy(d.chunks, d.chunks[drop:])
		clear(d.chunks[n:])
		d.chunks = d.chunks[:n]
	}
	d.count -= released
	return released
}

// recycle offers a chunk whose items are all released (and zeroed) to
// the spare pool, which keeps at most one chunk per destination; the
// rest are left to the collector.
func (l *Log) recycle(c []LogItem) {
	if len(l.spare) < len(l.perDest) {
		l.spare = append(l.spare, c[:0])
	}
}

// ItemsFor returns the logged items for dest with SendIndex > after, in
// send-index order. This is the resend set for a ROLLBACK whose
// last_deliver_index entry for this rank is after (Algorithm 1 lines
// 49-51). The returned slice is a fresh copy; later appends, releases
// and chunk reuse do not disturb it.
func (l *Log) ItemsFor(dest int, after int64) []LogItem {
	d := l.perDest[dest]
	if d == nil {
		return nil
	}
	var out []LogItem
	for i := range d.chunks {
		c := d.live(i)
		cut := sort.Search(len(c), func(i int) bool { return c[i].SendIndex > after })
		if cut < len(c) {
			out = append(out, c[cut:]...)
		}
	}
	return out
}

// Len returns the total number of retained items.
func (l *Log) Len() int {
	n := 0
	for _, d := range l.perDest {
		n += d.count
	}
	return n
}

// Bytes returns the retained payload+piggyback bytes (the memory the
// paper's sender-based logging strategy buffers).
func (l *Log) Bytes() int64 { return l.bytes }

// All returns a copy of every retained item ordered by (Dest,
// SendIndex), for checkpointing.
func (l *Log) All() []LogItem {
	dests := make([]int, 0, len(l.perDest))
	total := 0
	for dst, d := range l.perDest {
		if d.count > 0 {
			dests = append(dests, dst)
			total += d.count
		}
	}
	if total == 0 {
		return nil
	}
	sort.Ints(dests)
	out := make([]LogItem, 0, total)
	for _, dst := range dests {
		d := l.perDest[dst]
		for i := range d.chunks {
			out = append(out, d.live(i)...)
		}
	}
	return out
}

// RestoreAll replaces the log contents with items (from a checkpoint).
// The items are copied in; the log does not retain the slice.
func (l *Log) RestoreAll(items []LogItem) {
	l.perDest = make(map[int]*destLog)
	l.spare = nil
	l.bytes = 0
	byDest := make(map[int][]LogItem)
	for _, it := range items {
		byDest[it.Dest] = append(byDest[it.Dest], it)
	}
	// Re-append in per-destination send-index order so the chunked
	// layout is rebuilt exactly as a live log would have grown it.
	for _, its := range byDest {
		sort.Slice(its, func(i, j int) bool { return its[i].SendIndex < its[j].SendIndex })
		for _, it := range its {
			l.Append(it)
		}
	}
}
