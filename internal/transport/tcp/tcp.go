// Package tcp implements transport.Transport over real TCP loopback
// connections: every ordered rank pair (from, to) gets its own TCP
// stream, so the kernel's byte-stream ordering is the per-link FIFO
// guarantee, and envelopes travel in the framed wire format
// (wire.AppendFrame / wire.FrameReader) rather than as in-process
// pointers.
//
// # Link protocol
//
// A connection starts with a hello (uvarint sender rank, uvarint
// connection generation) and then carries frames in the from→to
// direction. The sender keeps every frame buffered until the
// destination inbox accepts it. Acknowledgements do not travel back
// over the socket: the transport simulates a cluster inside one
// process, so the receive loop acknowledges in-process, atomically
// with the inbox push, making the accounting exact:
//
//   - an acknowledged frame was accepted by an inbox — if the rank is
//     later killed, the frame is lost with the inbox, exactly the
//     fabric's lost-message observable;
//   - an unacknowledged frame survives connection teardown and is
//     retransmitted, in order, on the next connection — so a message
//     accepted by Send while the destination is dead, or stranded in
//     the TCP stream when the kill closed the socket, parks on the
//     sender side and reaches the incarnation after Revive, exactly
//     the fabric's parked-delivery observable.
//
// Kill serializes with the push+ack critical section on the rank lock,
// so after Kill returns every frame the dead incarnation inboxed is
// acked and every other frame is still queued for retransmission: the
// loss window equals the inbox contents, never more, never less.
//
// # Crash semantics
//
// Kill(rank) closes every inbound connection of the rank and drops its
// inbox: bytes in flight on the wire and messages waiting in the inbox
// die with the incarnation. Outbound traffic already accepted from the
// rank keeps flowing — the link queues belong to the network, matching
// the fabric, whose links deliver a dead sender's in-flight messages.
// Senders reconnect after Revive with bounded exponential backoff.
package tcp

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"windar/internal/clock"
	"windar/internal/obs"
	"windar/internal/transport"
	"windar/internal/wire"
)

// Config describes the TCP transport.
type Config struct {
	// N is the number of ranks. Required.
	N int
	// LinkBufferBytes bounds the bytes pending (queued + unacked) per
	// link; a buffered send blocks while the link is over this. 0
	// means DefaultLinkBuffer.
	LinkBufferBytes int64
	// DialBackoffMax caps the reconnect backoff. 0 means 100ms.
	DialBackoffMax time.Duration
	// BatchBytes caps the bytes the link writer coalesces from its queue
	// into one vectored write. 0 means DefaultBatchBytes; negative
	// disables batching (one frame per write).
	BatchBytes int64
	// Seed makes the reconnect-backoff jitter reproducible. Each link
	// derives its own RNG.
	Seed int64
	// Clock paces the reconnect backoff; default the real clock.
	Clock clock.Clock
	// Backoff, when non-nil, records every reconnect backoff delay the
	// dialing rank sleeps (per dialing rank, in nanoseconds) — the
	// tail-latency signal loopback runs otherwise hide. The recorded
	// value includes jitter: it is the delay actually slept.
	Backoff *obs.Family
	// Batch, if non-nil, records per-sender batch occupancy (frames per
	// vectored write).
	Batch *obs.Family
}

// DefaultLinkBuffer is used when Config.LinkBufferBytes is zero; it
// matches the fabric's default so the two transports exert the same
// send-side backpressure.
const DefaultLinkBuffer = 1 << 20

// DefaultBatchBytes is the batched-write cap when Config.BatchBytes is
// zero: enough to coalesce a burst of small protocol frames without
// holding a large payload hostage behind the batch.
const DefaultBatchBytes = 64 << 10

// Transport is the TCP loopback transport. Create with New, release
// with Close.
type Transport struct {
	cfg        Config
	clk        clock.Clock
	n          int
	maxBuf     int64
	batchBytes int64 // effective batched-write cap; 0 = one frame per write

	listeners []net.Listener
	addrs     []string

	links []*link      // n*n, indexed from*n+to
	ranks []*rankState // destination-side state

	closeOnce sync.Once
	closed    chan struct{}
}

var (
	_ transport.Transport = (*Transport)(nil)
	_ transport.Staller   = (*Transport)(nil)
)

// New builds the transport: one loopback listener per rank, links
// created eagerly but dialed lazily on first use.
func New(cfg Config) (*Transport, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("tcp: invalid N=%d", cfg.N)
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.LinkBufferBytes == 0 {
		cfg.LinkBufferBytes = DefaultLinkBuffer
	}
	if cfg.DialBackoffMax == 0 {
		cfg.DialBackoffMax = 100 * time.Millisecond
	}
	batchBytes := cfg.BatchBytes
	if batchBytes == 0 {
		batchBytes = DefaultBatchBytes
	} else if batchBytes < 0 {
		batchBytes = 0
	}
	t := &Transport{
		cfg:        cfg,
		clk:        cfg.Clock,
		n:          cfg.N,
		maxBuf:     cfg.LinkBufferBytes,
		batchBytes: batchBytes,
		listeners:  make([]net.Listener, cfg.N),
		addrs:      make([]string, cfg.N),
		links:      make([]*link, cfg.N*cfg.N),
		ranks:      make([]*rankState, cfg.N),
		closed:     make(chan struct{}),
	}
	for rank := 0; rank < cfg.N; rank++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("tcp: listen for rank %d: %w", rank, err)
		}
		t.listeners[rank] = ln
		t.addrs[rank] = ln.Addr().String()
		t.ranks[rank] = newRankState()
		go t.acceptLoop(rank, ln)
	}
	for from := 0; from < cfg.N; from++ {
		for to := 0; to < cfg.N; to++ {
			l := &link{
				t: t, from: from, to: to, base: map[int64]int64{},
				batch: cfg.Batch.Rank(from),
			}
			l.rng.Seed(uint64(cfg.Seed), uint64(from*cfg.N+to))
			l.cond = sync.NewCond(&l.mu)
			t.links[from*cfg.N+to] = l
		}
	}
	return t, nil
}

// N implements transport.Transport.
func (t *Transport) N() int { return t.n }

// Kind implements transport.Transport.
func (t *Transport) Kind() transport.Kind { return transport.TCP }

func (t *Transport) isClosed() bool {
	select {
	case <-t.closed:
		return true
	default:
		return false
	}
}

// Send implements transport.Transport: the envelope is framed once into
// a pooled buffer and queued on the (From, To) link.
func (t *Transport) Send(env *wire.Envelope, opts transport.SendOpts) error {
	if env.From < 0 || env.From >= t.n || env.To < 0 || env.To >= t.n {
		return fmt.Errorf("tcp: bad endpoints %d->%d", env.From, env.To)
	}
	buf := getBuf()
	*buf = wire.AppendFrame((*buf)[:0], env)
	p := &pending{buf: buf, size: int64(len(*buf))}
	if opts.Rendezvous {
		p.done = make(chan struct{})
	}
	l := t.links[env.From*t.n+env.To]
	if err := l.enqueue(p, opts.Abort); err != nil {
		return err
	}
	if p.done != nil {
		select {
		case <-p.done:
		case <-opts.Abort:
			return transport.ErrAborted
		case <-t.closed:
			return transport.ErrAborted
		}
	}
	return nil
}

// Inbox implements transport.Transport.
func (t *Transport) Inbox(rank int) transport.Inbox {
	return t.ranks[rank].inbox()
}

// Kill implements transport.Transport: drop the rank's inbox, sever its
// inbound connections (in-flight bytes die with them), and wake blocked
// senders so they can observe their abort channels.
func (t *Transport) Kill(rank int) {
	r := t.ranks[rank]
	r.alive.Store(false)
	r.mu.Lock()
	old := r.box
	r.box = newInbox()
	conns := r.conns
	r.conns = map[net.Conn]struct{}{}
	r.stallCond.Broadcast() // stalled receive loops re-check box identity
	r.mu.Unlock()
	old.dropBox()
	for conn := range conns {
		conn.Close()
	}
	// Kills are rare: a global broadcast lets writers targeting the dead
	// rank park and blocked Sends poll their abort channels.
	for _, l := range t.links {
		l.mu.Lock()
		l.cond.Broadcast()
		l.mu.Unlock()
	}
}

// Revive implements transport.Transport: the next inbound connections
// feed the incarnation's fresh inbox (installed at Kill), and parked
// links re-dial.
func (t *Transport) Revive(rank int) {
	r := t.ranks[rank]
	r.alive.Store(true)
	for from := 0; from < t.n; from++ {
		l := t.links[from*t.n+rank]
		l.mu.Lock()
		l.cond.Broadcast()
		l.mu.Unlock()
	}
}

// Stall implements transport.Staller: inbound receive loops hold
// frames unacked until Unstall, so parked messages survive kills via
// sender-side retransmission exactly like dead-window traffic.
func (t *Transport) Stall(rank int) {
	r := t.ranks[rank]
	r.mu.Lock()
	r.stalled = true
	r.mu.Unlock()
}

// Unstall implements transport.Staller.
func (t *Transport) Unstall(rank int) {
	r := t.ranks[rank]
	r.mu.Lock()
	r.stalled = false
	r.stallCond.Broadcast()
	r.mu.Unlock()
}

// Alive implements transport.Transport.
func (t *Transport) Alive(rank int) bool {
	return t.ranks[rank].alive.Load()
}

// InFlight implements transport.Transport: frames accepted by Send but
// not yet accepted by a destination inbox.
func (t *Transport) InFlight() int {
	total := 0
	for _, l := range t.links {
		if l == nil {
			continue
		}
		l.mu.Lock()
		total += len(l.queue) + len(l.unacked)
		l.mu.Unlock()
	}
	return total
}

// Close implements transport.Transport.
func (t *Transport) Close() {
	t.closeOnce.Do(func() {
		close(t.closed)
		for _, ln := range t.listeners {
			if ln != nil {
				ln.Close()
			}
		}
		for _, r := range t.ranks {
			if r == nil {
				continue
			}
			r.mu.Lock()
			conns := r.conns
			r.conns = map[net.Conn]struct{}{}
			box := r.box
			r.stallCond.Broadcast()
			r.mu.Unlock()
			box.closeBox()
			for conn := range conns {
				conn.Close()
			}
		}
		for _, l := range t.links {
			if l == nil {
				continue
			}
			l.mu.Lock()
			if l.conn != nil {
				l.conn.Close()
			}
			l.cond.Broadcast()
			l.mu.Unlock()
		}
	})
}

// acceptLoop serves one rank's listener until Close.
func (t *Transport) acceptLoop(rank int, ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go t.serveConn(rank, conn)
	}
}

// serveConn is the receiver side of one link connection. It pins the
// rank's current inbox (incarnation isolation) and then, for every
// frame, pushes to the inbox and acknowledges the sender's link
// in-process — both under the rank lock, so a Kill observes either the
// full push+ack or neither. A connection accepted while the rank is
// dead is refused; the dialer parks until Revive.
func (t *Transport) serveConn(rank int, conn net.Conn) {
	from, gen, err := readHello(conn)
	if err != nil || from < 0 || int(from) >= t.n {
		conn.Close()
		return
	}
	l := t.links[int(from)*t.n+rank]

	r := t.ranks[rank]
	r.mu.Lock()
	if !r.alive.Load() {
		r.mu.Unlock()
		conn.Close()
		return
	}
	box := r.box
	r.conns[conn] = struct{}{}
	r.mu.Unlock()
	defer func() {
		conn.Close()
		r.mu.Lock()
		delete(r.conns, conn)
		r.mu.Unlock()
	}()

	fr := wire.NewFrameReader(conn)
	var count int64
	for {
		env, err := fr.Read()
		if err != nil {
			return
		}
		r.mu.Lock()
		// A stalled rank parks the frame unacked: the receive loop holds
		// it here, so InFlight counts it and Unstall releases it in
		// stream order. Box identity is re-checked after every wake — a
		// Kill during the stall closes this connection's incarnation.
		for r.stalled && r.box == box && !t.isClosed() {
			r.stallCond.Wait()
		}
		if r.box != box || t.isClosed() {
			// The incarnation this connection fed was killed; the frame
			// stays unacked and reaches the next incarnation via
			// retransmission on a fresh connection.
			r.mu.Unlock()
			return
		}
		box.push(env)
		count++
		l.ack(gen, count)
		r.mu.Unlock()
	}
}

// readHello reads the dial-time preamble (sender rank, connection
// generation) byte-by-byte so no stream bytes are over-buffered before
// the frame reader takes over.
func readHello(conn net.Conn) (from, gen int64, err error) {
	u := func() (int64, error) {
		var x uint64
		var s uint
		var b [1]byte
		for i := 0; i < binary.MaxVarintLen64; i++ {
			if _, err := io.ReadFull(conn, b[:]); err != nil {
				return 0, err
			}
			c := b[0]
			if c < 0x80 {
				return int64(x | uint64(c)<<s), nil
			}
			x |= uint64(c&0x7f) << s
			s += 7
		}
		return 0, fmt.Errorf("tcp: hello varint overflow")
	}
	if from, err = u(); err != nil {
		return 0, 0, err
	}
	if gen, err = u(); err != nil {
		return 0, 0, err
	}
	return from, gen, nil
}

// pending is one frame accepted by Send and not yet acknowledged.
type pending struct {
	buf  *[]byte       // pooled framed bytes
	size int64         // len(*buf)
	done chan struct{} // non-nil for rendezvous sends; closed on ack
}

// Frame buffers come from the wire package's shared scratch pool
// (wire.GetBuf/PutBuf). Buffers are only returned by the link writer
// goroutine, after the frame is acked and no Write can still reference
// it.
func getBuf() *[]byte  { return wire.GetBuf() }
func putBuf(b *[]byte) { wire.PutBuf(b) }

// link is the sender side of one ordered-pair TCP stream. A single
// writer goroutine preserves FIFO across dials; the in-process ack path
// trims the unacked window.
type link struct {
	t        *Transport
	from, to int

	mu           sync.Mutex
	cond         *sync.Cond
	queue        []*pending      // accepted, not yet written to the current conn
	unacked      []*pending      // written, awaiting ack from the inbox
	recycle      []*pending      // acked; buffers await pool return by the writer
	pendingBytes int64           // bytes across queue+unacked (bounded buffer)
	conn         net.Conn        // current connection, nil while down
	gen          int64           // generation of the current connection
	base         map[int64]int64 // lifetime ack total at each generation's birth
	acked        int64           // frames acked over the link's lifetime
	ackSeen      int64           // highest lifetime ack total observed
	started      bool            // writer goroutine launched

	// rng (backoff jitter) and batch (occupancy histogram, nil-safe)
	// are touched only by the writer goroutine.
	rng   rand.PCG
	batch *obs.Hist
}

// enqueue adds p to the link, blocking while the bounded buffer is full
// (the limited communication-subsystem memory the paper blames for
// send-side blocking on large messages). The abort channel is polled
// around cond waits — as in the fabric, it is the sender's own kill,
// and Kill broadcasts every link.
func (l *link) enqueue(p *pending, abort <-chan struct{}) error {
	l.mu.Lock()
	if !l.started {
		l.started = true
		go l.run()
	}
	for l.pendingBytes+p.size > l.t.maxBuf && l.pendingBytes > 0 {
		select {
		case <-abort:
			l.mu.Unlock()
			return transport.ErrAborted
		case <-l.t.closed:
			l.mu.Unlock()
			return transport.ErrAborted
		default:
		}
		l.cond.Wait()
	}
	l.queue = append(l.queue, p)
	l.pendingBytes += p.size
	l.cond.Broadcast()
	l.mu.Unlock()
	return nil
}

// run is the link's writer: it dials when there is work and the
// destination is alive, retransmits the unacked window on every fresh
// connection, then streams the queue. Exits on transport Close.
func (l *link) run() {
	for {
		l.mu.Lock()
		l.recycleLocked()
		for {
			if l.t.isClosed() {
				l.mu.Unlock()
				return
			}
			if l.conn == nil {
				if (len(l.queue) > 0 || len(l.unacked) > 0) && l.t.Alive(l.to) {
					break
				}
			} else if len(l.queue) > 0 {
				break
			}
			l.cond.Wait()
		}

		if l.conn == nil {
			l.mu.Unlock()
			conn, ok := l.dial()
			if !ok {
				continue // closed, or destination died again: re-park
			}
			l.mu.Lock()
			l.conn = conn
			l.gen++
			gen := l.gen
			l.base[gen] = l.acked
			retrans := append([]*pending(nil), l.unacked...)
			l.mu.Unlock()
			// The receiver writes nothing back; a watchdog read detects
			// the connection dying (destination kill) even while this
			// writer is idle, so parked rendezvous frames reconnect.
			go l.watch(conn)
			if !l.writeHello(conn, gen) {
				continue
			}
			for _, p := range retrans {
				if !l.write(conn, p) {
					break
				}
			}
			continue
		}

		// Pop a batch of queued frames — head plus followers up to the
		// batched-write cap — into the unacked window BEFORE writing: a
		// write error then leaves every popped frame queued for
		// retransmission on the next connection.
		batch := []*pending{l.queue[0]}
		total := l.queue[0].size
		l.queue = l.queue[1:]
		if max := l.t.batchBytes; max > 0 {
			for len(l.queue) > 0 && total+l.queue[0].size <= max {
				batch = append(batch, l.queue[0])
				total += l.queue[0].size
				l.queue = l.queue[1:]
			}
		}
		l.unacked = append(l.unacked, batch...)
		conn := l.conn
		l.mu.Unlock()
		l.batch.Record(int64(len(batch)))
		if !l.writeBatch(conn, batch) {
			continue
		}
		// Frames may have been pushed and acked before they entered
		// the unacked window above; settle any ack total seen meanwhile.
		l.mu.Lock()
		l.drainAcksLocked()
		l.mu.Unlock()
	}
}

// writeHello sends the dial-time preamble identifying the sender rank
// and connection generation.
func (l *link) writeHello(conn net.Conn, gen int64) bool {
	var buf [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(l.from))
	n += binary.PutUvarint(buf[n:], uint64(gen))
	if _, err := conn.Write(buf[:n]); err != nil {
		l.dropConn(conn)
		return false
	}
	return true
}

// write sends one frame; on error the connection is torn down and the
// frame stays in the unacked window for retransmission.
func (l *link) write(conn net.Conn, p *pending) bool {
	if _, err := conn.Write(*p.buf); err != nil {
		l.dropConn(conn)
		return false
	}
	return true
}

// writeBatch coalesces the batch into one vectored write (writev via
// net.Buffers; a plain Write when the batch is a single frame). On
// error the connection is torn down and every frame stays in the
// unacked window for retransmission.
func (l *link) writeBatch(conn net.Conn, batch []*pending) bool {
	if len(batch) == 1 {
		return l.write(conn, batch[0])
	}
	bufs := make(net.Buffers, len(batch))
	for i, p := range batch {
		bufs[i] = *p.buf
	}
	if _, err := bufs.WriteTo(conn); err != nil {
		l.dropConn(conn)
		return false
	}
	return true
}

// watch blocks reading the (otherwise silent) return direction of conn
// and retires the connection when it dies.
func (l *link) watch(conn net.Conn) {
	var b [1]byte
	for {
		if _, err := conn.Read(b[:]); err != nil {
			l.dropConn(conn)
			return
		}
	}
}

// dial connects to the destination with bounded exponential backoff,
// giving up when the transport closes or the destination dies.
func (l *link) dial() (net.Conn, bool) {
	rng := rand.New(&l.rng)
	backoff := time.Millisecond
	for {
		if l.t.isClosed() || !l.t.Alive(l.to) {
			return nil, false
		}
		conn, err := net.Dial("tcp", l.t.addrs[l.to])
		if err == nil {
			return conn, true
		}
		// Jitter desynchronizes the reconnect herd: every link dialing a
		// revived rank would otherwise retry on the same deterministic
		// schedule. Sleep a uniform pick from [backoff/2, backoff] and
		// record the delay actually slept.
		sleep := backoff/2 + time.Duration(rng.Int64N(int64(backoff/2)+1))
		l.t.cfg.Backoff.Rank(l.from).RecordDuration(sleep)
		select {
		case <-l.t.closed:
			return nil, false
		case <-l.t.clk.After(sleep):
		}
		if backoff *= 2; backoff > l.t.cfg.DialBackoffMax {
			backoff = l.t.cfg.DialBackoffMax
		}
	}
}

// dropConn retires conn if it is still the link's current connection.
func (l *link) dropConn(conn net.Conn) {
	conn.Close()
	l.mu.Lock()
	if l.conn == conn {
		l.conn = nil
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// ack records that the destination inbox accepted the count-th frame of
// connection generation gen. Called in-process by the receive loop,
// under the destination's rank lock.
func (l *link) ack(gen, count int64) {
	l.mu.Lock()
	if total := l.base[gen] + count; total > l.ackSeen {
		l.ackSeen = total
	}
	l.drainAcksLocked()
	l.mu.Unlock()
}

// drainAcksLocked settles the unacked window against the highest ack
// total seen: acked frames complete their rendezvous, free buffer
// space, and move to the recycle list (the writer returns buffers to
// the pool once no Write can reference them).
func (l *link) drainAcksLocked() {
	for l.acked < l.ackSeen && len(l.unacked) > 0 {
		p := l.unacked[0]
		l.unacked = l.unacked[1:]
		l.acked++
		l.pendingBytes -= p.size
		if p.done != nil {
			close(p.done)
		}
		l.recycle = append(l.recycle, p)
	}
	l.cond.Broadcast()
}

// recycleLocked returns acked frame buffers to the pool. Called only by
// the writer goroutine between writes, so no in-progress Write can
// still reference a recycled buffer.
func (l *link) recycleLocked() {
	for _, p := range l.recycle {
		putBuf(p.buf)
		p.buf = nil
	}
	l.recycle = l.recycle[:0]
}

// rankState is the destination-side view of one rank.
type rankState struct {
	alive     atomic.Bool
	mu        sync.Mutex
	stalled   bool       // delivery suspended (Stall), independent of alive
	stallCond *sync.Cond // on mu; broadcast on Unstall / Kill / Close
	box       *inbox
	conns     map[net.Conn]struct{} // inbound conns feeding the current incarnation
}

func newRankState() *rankState {
	r := &rankState{box: newInbox(), conns: map[net.Conn]struct{}{}}
	r.stallCond = sync.NewCond(&r.mu)
	r.alive.Store(true)
	return r
}

func (r *rankState) inbox() *inbox {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.box
}

// inbox is an unbounded closable FIFO of envelopes, the same shape as
// the fabric's: push after close silently discards (the message is lost
// with the incarnation's volatile state).
type inbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*wire.Envelope
	closed bool
}

func newInbox() *inbox {
	b := &inbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *inbox) push(env *wire.Envelope) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.queue = append(b.queue, env)
	b.cond.Signal()
	b.mu.Unlock()
}

// Recv implements transport.Inbox.
func (b *inbox) Recv() (*wire.Envelope, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.queue) == 0 && !b.closed {
		b.cond.Wait()
	}
	if len(b.queue) == 0 {
		return nil, false
	}
	env := b.queue[0]
	b.queue = b.queue[1:]
	return env, true
}

// RecvBatch implements transport.BatchInbox: one blocking wait for the
// first envelope, then a non-blocking drain of whatever the connection
// readers pushed meanwhile, up to buf's capacity. A killed rank's inbox
// reports ok=false immediately (dropBox discarded its queue); a
// transport-shutdown close still drains the remainder, mirroring Recv.
func (b *inbox) RecvBatch(buf []*wire.Envelope) ([]*wire.Envelope, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.queue) == 0 && !b.closed {
		b.cond.Wait()
	}
	if len(b.queue) == 0 {
		return buf, false
	}
	n := cap(buf) - len(buf)
	if n < 1 {
		n = 1
	}
	if n > len(b.queue) {
		n = len(b.queue)
	}
	buf = append(buf, b.queue[:n]...)
	rest := copy(b.queue, b.queue[n:])
	for i := rest; i < len(b.queue); i++ {
		b.queue[i] = nil // release delivered refs for the GC
	}
	b.queue = b.queue[:rest]
	return buf, true
}

// closeBox marks the box closed for transport shutdown: receivers drain
// whatever is already queued, then see ok=false.
func (b *inbox) closeBox() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// dropBox closes the box and discards everything queued. Kill uses this
// instead of closeBox: the dead incarnation's accepted-but-undelivered
// messages are volatile state and must die with it, so a receiver
// thread racing the kill can never hand stale envelopes to the next
// incarnation's delivery path.
func (b *inbox) dropBox() {
	b.mu.Lock()
	for i := range b.queue {
		b.queue[i] = nil
	}
	b.queue = nil
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
