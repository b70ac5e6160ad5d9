// Package fabric simulates the cluster interconnect the paper's testbed
// ran on (PCs on 100 Mb Ethernet under MPICH).
//
// The fabric provides, per ordered rank pair, a FIFO link with a latency
// and bandwidth model and a bounded in-flight buffer; across links,
// arrival order is unconstrained — exactly the non-determinism the TDI
// protocol exploits. It also owns the failure semantics the rollback
// recovery protocols are built against:
//
//   - Kill(rank) drops the rank's volatile state: everything sitting in
//     its inbox is lost, and its receivers are unblocked with ok=false.
//   - Messages that arrive while the destination is dead are parked and
//     handed to the incarnation after Revive — modelling the MPI layer's
//     retry, and producing the paper's "sender blocks until the receiver
//     recovers" behaviour for rendezvous sends.
//   - Rendezvous (blocking) sends return only when the destination's
//     inbox has accepted the message; buffered sends return as soon as
//     the link's bounded buffer has space (and block while it is full,
//     modelling the limited communication-subsystem memory the paper
//     blames for send-side blocking on large messages).
//
// Delivery timing runs on one goroutine and one clock timer for the
// whole fabric: every link's batch in service waits in a deadline heap
// that a single scheduler goroutine drains (see sched).
package fabric

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"time"

	"windar/internal/clock"
	"windar/internal/obs"
	"windar/internal/wire"
)

// Config describes the interconnect.
type Config struct {
	// N is the number of ranks.
	N int
	// BaseLatency is the per-message propagation delay.
	BaseLatency time.Duration
	// BytesPerSecond is the per-link bandwidth; 0 means infinite.
	BytesPerSecond int64
	// JitterFraction adds a uniform random extra delay in
	// [0, JitterFraction·(base+transmission)]. Cross-link reordering
	// needs no jitter (links are independent), but jitter makes arrival
	// interleavings less regular, like a real network.
	JitterFraction float64
	// LinkBufferBytes bounds the bytes in flight per link; a buffered
	// send blocks while the link is over this. 0 means a generous
	// default.
	LinkBufferBytes int64
	// Seed makes jitter reproducible. Each link derives its own RNG.
	Seed int64
	// BatchBytes, when positive, lets a link coalesce consecutive queued
	// messages up to this many bytes into one serviced transfer (one
	// latency charge for the whole batch — the simulated analogue of the
	// TCP transport's batched write). 0 or negative services messages
	// one at a time, preserving the per-message timing the figure
	// experiments are calibrated against.
	BatchBytes int64
	// Batch, if non-nil, records per-sender batch occupancy (frames per
	// serviced transfer).
	Batch *obs.Family
	// Clock defaults to the real clock.
	Clock clock.Clock
}

// DefaultLinkBuffer is used when Config.LinkBufferBytes is zero.
const DefaultLinkBuffer = 1 << 20

// ErrAborted is returned by Send when the caller's abort channel fires
// while the send is blocked (its own rank was killed).
var ErrAborted = errors.New("fabric: send aborted")

// Fabric is the simulated interconnect. Create with New, release with
// Close.
type Fabric struct {
	cfg   Config
	clk   clock.Clock
	epoch time.Time    // due times are offsets from the fabric's creation
	links []link       // n*n, indexed from*n+to
	ranks []*rankState // destination-side state

	// instant is true when the configured network model never delays a
	// message (zero latency, infinite bandwidth, no batch coalescing):
	// Send may then deliver inline from the sending goroutine, bypassing
	// the link queue and the scheduler.
	instant bool

	sched sched

	closeOnce sync.Once
	closed    chan struct{}
}

// New builds the fabric. The delivery scheduler starts with the first
// queued message, so a fabric that is never used costs no goroutine.
func New(cfg Config) *Fabric {
	if cfg.N <= 0 {
		panic(fmt.Sprintf("fabric: invalid N=%d", cfg.N))
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.LinkBufferBytes == 0 {
		cfg.LinkBufferBytes = DefaultLinkBuffer
	}
	f := &Fabric{
		cfg:    cfg,
		clk:    cfg.Clock,
		epoch:  cfg.Clock.Now(),
		links:  make([]link, cfg.N*cfg.N),
		ranks:  make([]*rankState, cfg.N),
		closed: make(chan struct{}),
	}
	f.instant = cfg.BaseLatency == 0 && cfg.BytesPerSecond <= 0 && cfg.BatchBytes <= 0
	f.sched = sched{wakeAt: idle, poke: make(chan struct{}, 1), exited: make(chan struct{})}
	for i := range f.ranks {
		f.ranks[i] = &rankState{alive: true, box: newInbox()}
	}
	for from := 0; from < cfg.N; from++ {
		for to := 0; to < cfg.N; to++ {
			l := &f.links[from*cfg.N+to]
			l.f, l.to, l.batch = f, to, cfg.Batch.Rank(from)
			l.rng.Seed(uint64(cfg.Seed), uint64(from*cfg.N+to))
		}
	}
	return f
}

// N returns the number of ranks.
func (f *Fabric) N() int { return f.cfg.N }

// Close stops the delivery scheduler and returns once it has exited.
// Messages still queued or parked are dropped, blocked sends return
// ErrAborted, and receivers drain what their inbox already holds before
// seeing ok=false.
func (f *Fabric) Close() {
	f.closeOnce.Do(func() {
		close(f.closed)
		s := &f.sched
		s.mu.Lock()
		started := s.started
		s.started = true // a late arm must not start a scheduler now
		s.mu.Unlock()
		if started {
			<-s.exited
		}
		for _, r := range f.ranks {
			r.inbox().closeBox()
		}
	})
}

// SendOpts controls one Send call.
type SendOpts struct {
	// Rendezvous makes Send return only once the destination inbox has
	// accepted the envelope (the synchronous MPI mode of Fig. 4(a)).
	Rendezvous bool
	// Abort unblocks a blocked Send with ErrAborted as soon as it fires,
	// whether the send waits for link buffer space or for a rendezvous
	// delivery — used when the sending rank itself is killed. A blocked
	// send waits on Abort directly, so neither Kill nor any other call
	// has to wake it, and closing Abort before or after Kill(env.From)
	// is equally prompt. A message already accepted stays in flight.
	Abort <-chan struct{}
}

// Send transmits env. The envelope is handed off as-is; the fabric
// encodes it once for size accounting and transmission timing but the
// receiver gets the decoded form, so wire round-tripping is exercised on
// every message.
func (f *Fabric) Send(env *wire.Envelope, opts SendOpts) error {
	l := f.link(env)
	if l == nil {
		return fmt.Errorf("fabric: bad endpoints %d->%d", env.From, env.To)
	}
	if f.instant && l.tryInline(env) {
		// Delivered synchronously: a rendezvous send's acceptance
		// condition (destination inbox took the message) already holds.
		return nil
	}
	it := item{buf: encode(env)}
	if opts.Rendezvous {
		it.done = make(chan struct{})
	}
	if err := l.enqueue(it, opts.Abort); err != nil {
		wire.PutBuf(it.buf)
		return err
	}
	if it.done != nil {
		select {
		case <-it.done:
		case <-opts.Abort:
			return ErrAborted
		case <-f.closed:
			return ErrAborted
		}
	}
	return nil
}

// TrySend accepts env without blocking, FIFO behind every earlier send
// on its link, or reports false. On an instant network acceptance is
// delivery: env goes straight into the destination inbox while the link
// is idle and the destination deliverable. On a latency network env is
// queued on its link whenever the link buffer has room, exactly as a
// buffered Send that did not have to wait. false means the caller must
// use Send, which owns blocking, parking and abort.
func (f *Fabric) TrySend(env *wire.Envelope) bool {
	l := f.link(env)
	if l == nil {
		return false
	}
	if f.instant {
		return l.tryInline(env)
	}
	it := item{buf: encode(env)}
	l.mu.Lock()
	ok := l.hasRoom(it.size())
	if ok {
		l.push(it)
	}
	l.mu.Unlock()
	if !ok {
		wire.PutBuf(it.buf)
	}
	return ok
}

// link returns env's link, or nil for out-of-range endpoints.
func (f *Fabric) link(env *wire.Envelope) *link {
	if env.From < 0 || env.From >= f.cfg.N || env.To < 0 || env.To >= f.cfg.N {
		return nil
	}
	return &f.links[env.From*f.cfg.N+env.To]
}

// encode wire-encodes env into a pooled buffer the delivery returns.
func encode(env *wire.Envelope) *[]byte {
	buf := wire.GetBuf()
	*buf = wire.AppendEncode((*buf)[:0], env)
	return buf
}

// now is the fabric clock as an offset from the fabric's creation.
func (f *Fabric) now() time.Duration { return f.clk.Now().Sub(f.epoch) }

// Recv blocks until an envelope is available for rank, the rank is killed
// (ok=false), or the fabric is closed (ok=false). Each call observes the
// rank's *current* inbox: after a Kill, blocked receivers drain out with
// ok=false and the incarnation's receivers see only post-revival traffic.
//
// A long-lived receiver loop must use Inbox instead: re-calling Recv
// after a Kill/Revive would silently attach the old receiver to the new
// incarnation's inbox.
func (f *Fabric) Recv(rank int) (*wire.Envelope, bool) {
	return f.ranks[rank].inbox().recv()
}

// Inbox is a receiver handle pinned to one incarnation's message queue.
// Once the rank is killed, Recv on the old handle returns ok=false
// forever; the incarnation must obtain a fresh handle.
type Inbox struct{ box *inboxT }

// Recv blocks for the next envelope on this handle's queue; ok=false
// means the queue was closed (rank killed or fabric shut down).
func (in Inbox) Recv() (*wire.Envelope, bool) { return in.box.recv() }

// RecvBatch implements transport.BatchInbox: it blocks like Recv for the
// first envelope, then drains whatever else is already queued — up to
// buf's capacity — without blocking again. Like Recv, a killed rank's
// handle returns ok=false immediately (its queue died with the
// incarnation); only a fabric-shutdown close still drains what was
// queued before it.
func (in Inbox) RecvBatch(buf []*wire.Envelope) ([]*wire.Envelope, bool) {
	return in.box.recvBatch(buf)
}

// Inbox returns a handle pinned to rank's current inbox.
func (f *Fabric) Inbox(rank int) Inbox {
	return Inbox{box: f.ranks[rank].inbox()}
}

// Kill marks rank dead, dropping its inbox contents and unblocking its
// receivers. Batches falling due for it park until Revive. Kill wakes no
// link: a sender blocked on the killed rank's behalf waits on its own
// abort channel (see SendOpts.Abort).
func (f *Fabric) Kill(rank int) {
	r := f.ranks[rank]
	r.mu.Lock()
	r.alive = false
	old := r.box
	r.box = newInbox()
	r.mu.Unlock()
	old.dropBox()
}

// Revive brings rank back (as a new incarnation) and releases any parked
// deliveries destined to it.
func (f *Fabric) Revive(rank int) {
	r := f.ranks[rank]
	r.mu.Lock()
	r.alive = true
	f.releaseLocked(r)
	r.mu.Unlock()
}

// Stall suspends delivery into rank: messages park at the links as
// during a dead window, but the rank's inbox and receivers stay
// attached — a transient partition in front of the rank, not a crash.
// Independent of Kill/Revive; pair every Stall with an Unstall.
func (f *Fabric) Stall(rank int) {
	r := f.ranks[rank]
	r.mu.Lock()
	r.stalled = true
	r.mu.Unlock()
}

// Unstall resumes delivery into rank, releasing parked messages in
// per-link FIFO order.
func (f *Fabric) Unstall(rank int) {
	r := f.ranks[rank]
	r.mu.Lock()
	r.stalled = false
	f.releaseLocked(r)
	r.mu.Unlock()
}

// releaseLocked re-arms r's parked links at the current time once r is
// deliverable again; the scheduler then delivers each parked batch in
// its link's FIFO order. Callers hold r.mu.
func (f *Fabric) releaseLocked(r *rankState) {
	if !r.alive || r.stalled || len(r.parked) == 0 {
		return
	}
	now := f.now()
	for i, l := range r.parked {
		f.sched.arm(l, now)
		r.parked[i] = nil
	}
	r.parked = r.parked[:0]
}

// Alive reports whether rank is currently alive.
func (f *Fabric) Alive(rank int) bool {
	r := f.ranks[rank]
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.alive
}

// InFlight reports the number of messages queued, in service or parked
// across all links (diagnostics and tests).
func (f *Fabric) InFlight() int {
	total := 0
	for i := range f.links {
		l := &f.links[i]
		l.mu.Lock()
		total += len(l.queue) - l.head
		l.mu.Unlock()
	}
	return total
}

// item is one in-flight message, held by value in its link's queue.
type item struct {
	buf  *[]byte       // pooled wire encoding, returned after decode
	done chan struct{} // non-nil for rendezvous sends
}

func (it item) size() int64 { return int64(len(*it.buf)) }

// link is one ordered-pair FIFO channel with a serial service model: a
// message's transmission time delays the messages queued behind it, so a
// large payload stalls the link exactly the way the paper describes.
//
// queue[head:] is everything in flight on the link. Its first busy items
// are the batch in service: armed on the scheduler, parked on the
// destination, or being delivered. The rest wait, and queued counts
// their bytes against the link buffer.
type link struct {
	f  *Fabric
	to int

	mu     sync.Mutex
	space  chan struct{} // closed when buffer space frees; nil unless a sender waits
	queue  []item        // reused across batches
	head   int
	busy   int   // items in the batch in service
	queued int64 // bytes waiting behind the batch in service
	rng    rand.PCG
	batch  *obs.Hist // occupancy of each serviced batch (nil-safe)
}

// hasRoom reports whether a message of size bytes fits the link buffer.
// An oversized message is admitted onto an empty buffer. Callers hold
// l.mu.
func (l *link) hasRoom(size int64) bool {
	return l.queued == 0 || l.queued+size <= l.f.cfg.LinkBufferBytes
}

// enqueue appends it to the link, blocking while the link buffer is
// full until space frees, abort fires or the fabric closes.
func (l *link) enqueue(it item, abort <-chan struct{}) error {
	size := it.size()
	l.mu.Lock()
	for !l.hasRoom(size) {
		if l.space == nil {
			l.space = make(chan struct{})
		}
		space := l.space
		l.mu.Unlock()
		select {
		case <-space:
		case <-abort:
			return ErrAborted
		case <-l.f.closed:
			return ErrAborted
		}
		l.mu.Lock()
	}
	l.push(it)
	l.mu.Unlock()
	return nil
}

// push appends it behind every earlier message; on an idle link it goes
// into service at once. Callers hold l.mu and have checked hasRoom.
func (l *link) push(it item) {
	if len(l.queue) == cap(l.queue) && l.head > 0 {
		n := copy(l.queue, l.queue[l.head:])
		clear(l.queue[n:])
		l.queue, l.head = l.queue[:n], 0
	}
	l.queue = append(l.queue, it)
	l.queued += it.size()
	if l.busy == 0 {
		l.startBatch(l.f.now())
	}
}

// startBatch puts the head of the waiting messages into service at
// start: the head plus — when batching is on — as many followers as fit
// under BatchBytes. The whole batch pays one latency charge, like one
// coalesced write on a real link, and is armed on the scheduler for
// start+delay. Callers hold l.mu.
func (l *link) startBatch(start time.Duration) {
	i := l.head + 1
	total := l.queue[l.head].size()
	if max := l.f.cfg.BatchBytes; max > 0 {
		for ; i < len(l.queue) && total+l.queue[i].size() <= max; i++ {
			total += l.queue[i].size()
		}
	}
	l.busy = i - l.head
	l.queued -= total
	l.batch.Record(int64(l.busy))
	l.f.sched.arm(l, start+l.delayFor(total))
	if l.space != nil {
		close(l.space)
		l.space = nil
	}
}

// tryInline delivers env synchronously on an instant network, bypassing
// the link queue. It only fires while the link is idle (nothing queued
// or in service) and the destination is alive and unstalled, so per-link
// FIFO order and the park-while-dead semantics are untouched: any
// message that cannot go right now takes the queued path, and once one
// is queued every later send queues behind it until the link drains.
// l.mu is held across the inbox push so a racing send on the same link
// cannot overtake the delivery. The receiver gets a deep copy with the
// same ownership contract a decode would produce, never the sender's
// envelope; the queued path still wire-round-trips every message.
func (l *link) tryInline(env *wire.Envelope) bool {
	r := l.f.ranks[l.to]
	l.mu.Lock()
	if len(l.queue) > l.head {
		l.mu.Unlock()
		return false
	}
	r.mu.Lock()
	if !r.alive || r.stalled {
		r.mu.Unlock()
		l.mu.Unlock()
		return false
	}
	box := r.box
	r.mu.Unlock()

	denv := wire.GetEnvelope()
	wire.CopyInto(denv, env)
	l.batch.Record(1)
	box.push(denv)
	l.mu.Unlock()
	return true
}

// deliverDue runs on the scheduler when l's batch in service falls due
// at now. A dead or stalled destination parks the link on its rank;
// otherwise the batch is decoded into the destination inbox in FIFO
// order and the next waiting batch goes into service at now, so its
// latency starts when its predecessor is delivered. l.mu is held
// throughout, so no send on the link can overtake the batch.
func (l *link) deliverDue(now time.Duration) {
	r := l.f.ranks[l.to]
	l.mu.Lock()
	defer l.mu.Unlock()
	r.mu.Lock()
	if !r.alive || r.stalled {
		r.parked = append(r.parked, l)
		r.mu.Unlock()
		return
	}
	box := r.box
	r.mu.Unlock()

	end := l.head + l.busy
	for i := l.head; i < end; i++ {
		it := l.queue[i]
		l.queue[i] = item{}
		env := wire.GetEnvelope()
		if err := wire.DecodeInto(env, *it.buf); err != nil {
			// An encode/decode mismatch is a bug in this repository, not a
			// runtime condition: fail loudly.
			panic(fmt.Sprintf("fabric: corrupt envelope on link to %d: %v", l.to, err))
		}
		wire.PutBuf(it.buf)
		box.push(env)
		if it.done != nil {
			close(it.done)
		}
	}
	l.head, l.busy = end, 0
	if l.head == len(l.queue) {
		l.queue, l.head = l.queue[:0], 0
		return
	}
	l.startBatch(now)
}

// delayFor computes base + size/bandwidth + jitter. Callers hold l.mu (for
// the rng).
func (l *link) delayFor(size int64) time.Duration {
	d := l.f.cfg.BaseLatency
	if bps := l.f.cfg.BytesPerSecond; bps > 0 {
		d += time.Duration(size * int64(time.Second) / bps)
	}
	if jf := l.f.cfg.JitterFraction; jf > 0 && d > 0 {
		u := float64(l.rng.Uint64()>>11) / (1 << 53) // uniform in [0, 1)
		d += time.Duration(u * jf * float64(d))
	}
	return d
}

// idle is the scheduler's wakeAt while it sleeps with nothing armed.
const idle = time.Duration(math.MaxInt64)

// sched is the fabric-wide delivery scheduler: one goroutine and one
// clock timer serve every link. Each link's batch in service sits in a
// min-heap keyed by its due time; the goroutine sleeps until the
// earliest, delivers every batch that is due, and sleeps again. A link
// armed with a new earliest due time pokes the sleeper awake.
//
// Lock order: link.mu, then rank.mu, then sched.mu. Nothing takes a
// link or rank lock while holding sched.mu.
type sched struct {
	mu   sync.Mutex
	heap []dueLink
	// wakeAt is the due time the scheduler will next look at the heap by
	// itself: the earliest due time while it sleeps, idle when nothing
	// is armed, and math.MinInt64 while it runs a delivery pass (which
	// re-reads the heap before sleeping, so no arm needs to poke it).
	wakeAt  time.Duration
	started bool
	ready   []*link // scheduler-owned: the links due in the current pass

	poke   chan struct{} // 1-buffered
	exited chan struct{} // closed when the scheduler goroutine returns
}

// dueLink is one heap entry: l's batch in service falls due at due.
type dueLink struct {
	due time.Duration
	l   *link
}

// arm schedules l's batch in service for delivery at due, starting the
// scheduler goroutine on first use. Callers hold l.mu, or r.mu of the
// rank l is parked on.
func (s *sched) arm(l *link, due time.Duration) {
	s.mu.Lock()
	s.push(dueLink{due: due, l: l})
	if !s.started {
		// The new goroutine reads the heap before it first sleeps.
		s.started, s.wakeAt = true, math.MinInt64
		go l.f.schedule()
	}
	wake := due < s.wakeAt
	if wake {
		s.wakeAt = due
	}
	s.mu.Unlock()
	if wake {
		select {
		case s.poke <- struct{}{}:
		default:
		}
	}
}

// schedule is the scheduler goroutine: it delivers each batch that is
// due and sleeps on a single timer until the next due time, a poke, or
// Close.
func (f *Fabric) schedule() {
	s := &f.sched
	defer close(s.exited)
	for {
		select {
		case <-f.closed:
			return
		default:
		}
		now := f.now()
		s.mu.Lock()
		for len(s.heap) > 0 && s.heap[0].due <= now {
			s.ready = append(s.ready, s.pop())
		}
		wait := time.Duration(-1)
		switch {
		case len(s.ready) > 0:
			s.wakeAt = math.MinInt64
		case len(s.heap) > 0:
			s.wakeAt = s.heap[0].due
			wait = s.wakeAt - now
		default:
			s.wakeAt = idle
		}
		s.mu.Unlock()

		if len(s.ready) > 0 {
			for i, l := range s.ready {
				l.deliverDue(now)
				s.ready[i] = nil
			}
			s.ready = s.ready[:0]
			continue
		}
		var timer <-chan time.Time
		if wait >= 0 {
			timer = f.clk.After(wait)
		}
		select {
		case <-timer:
		case <-s.poke:
		case <-f.closed:
			return
		}
	}
}

// push adds e to the heap. Callers hold s.mu.
func (s *sched) push(e dueLink) {
	s.heap = append(s.heap, e)
	i := len(s.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s.heap[p].due <= e.due {
			break
		}
		s.heap[i] = s.heap[p]
		i = p
	}
	s.heap[i] = e
}

// pop removes and returns the link with the earliest due time. Callers
// hold s.mu and have checked the heap is not empty.
func (s *sched) pop() *link {
	h := s.heap
	top := h[0].l
	n := len(h) - 1
	last := h[n]
	h[n] = dueLink{}
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].due < h[c].due {
			c++
		}
		if last.due <= h[c].due {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	s.heap = h
	return top
}

// rankState is the destination-side view of one rank.
type rankState struct {
	mu      sync.Mutex
	alive   bool
	stalled bool // delivery suspended (Stall), independent of alive
	box     *inboxT
	parked  []*link // links whose due batch waits for the rank to become deliverable
}

func (r *rankState) inbox() *inboxT {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.box
}

// inboxT is an unbounded closable FIFO of envelopes.
type inboxT struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*wire.Envelope
	closed bool
}

func newInbox() *inboxT {
	b := &inboxT{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *inboxT) push(env *wire.Envelope) {
	b.mu.Lock()
	if b.closed {
		// The rank died between the alive check and the push; the
		// message is lost with the rank's volatile state. The recovery
		// protocol regenerates it from sender logs.
		b.mu.Unlock()
		return
	}
	b.queue = append(b.queue, env)
	b.cond.Signal()
	b.mu.Unlock()
}

func (b *inboxT) recv() (*wire.Envelope, bool) {
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

// recvBatch is recv draining up to cap(buf)-len(buf) queued envelopes in
// one critical section: one lock round and one receiver wakeup however
// many messages arrived while the receiver was busy.
func (b *inboxT) recvBatch(buf []*wire.Envelope) ([]*wire.Envelope, bool) {
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

// closeBox marks the box closed for fabric shutdown: receivers drain
// whatever is already queued, then see ok=false.
func (b *inboxT) closeBox() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// dropBox closes the box and discards everything queued. Kill uses this
// instead of closeBox: the dead incarnation's undelivered messages are
// part of its volatile state and must be lost with it — a receiver
// thread racing the kill would otherwise hand stale envelopes to the
// next incarnation's delivery path.
func (b *inboxT) dropBox() {
	b.mu.Lock()
	for i := range b.queue {
		b.queue[i] = nil
	}
	b.queue = nil
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
