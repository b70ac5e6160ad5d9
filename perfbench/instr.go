package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"windar/internal/app"
	"windar/internal/obs"
	"windar/internal/stable"
	"windar/layer"
)

// This file holds everything the benchmark attaches to a cluster from the
// outside: an application wrapper (step-0 gate, progress-triggered kills,
// Step/Send/Recv timing), a harness.Observer (final delivered counts,
// recovery completion, recovery phases), a layer.Interceptor (checkpoint
// stall spans, piggyback capture) and a timing stable.Backend.

// killEntry is one planned kill: victim is killed as it enters step.
type killEntry struct{ victim, step int }

// killPlan hands kills to the kill loop in order. A victim entering its kill
// step blocks until every earlier kill has been served, asks the kill loop
// to kill it, and waits until the kill is done, so the work lost per kill
// is exact.
type killPlan struct {
	entries []killEntry
	index   map[killEntry]int
	// requests carries a planned entry's index and its ack channel to the
	// kill loop, one request in flight at a time.
	requests chan killRequest

	mu      sync.Mutex
	cond    *sync.Cond
	cur     int
	fired   []bool
	aborted bool
	// done is closed by abort, releasing a victim waiting on the kill loop.
	done chan struct{}
}

type killRequest struct {
	idx int
	ack chan struct{}
}

func newKillPlan(entries []killEntry) *killPlan {
	p := &killPlan{
		entries:  entries,
		index:    make(map[killEntry]int, len(entries)),
		requests: make(chan killRequest, 1),
		fired:    make([]bool, len(entries)),
		done:     make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	for i, e := range entries {
		p.index[e] = i
	}
	return p
}

// at is called by rank as it enters step s. It returns at once unless
// (rank, s) is a planned kill not yet fired.
func (p *killPlan) at(rank, s int) {
	idx, ok := p.index[killEntry{rank, s}]
	if !ok {
		return
	}
	p.mu.Lock()
	for !p.aborted && !p.fired[idx] && p.cur != idx {
		p.cond.Wait()
	}
	if p.aborted || p.fired[idx] {
		// Fired already: this is the recovered incarnation re-entering
		// the step it was killed at.
		p.mu.Unlock()
		return
	}
	p.fired[idx] = true
	p.mu.Unlock()
	ack := make(chan struct{})
	select {
	case p.requests <- killRequest{idx: idx, ack: ack}:
	case <-p.done:
		return
	}
	select {
	case <-ack:
	case <-p.done:
	}
}

// advance marks the current kill served and releases the next victim.
func (p *killPlan) advance() {
	p.mu.Lock()
	p.cur++
	p.cond.Broadcast()
	p.mu.Unlock()
}

// abort releases every waiting victim without killing it (a cycle
// failed, or the repetition is over). Idempotent.
func (p *killPlan) abort() {
	p.mu.Lock()
	if !p.aborted {
		p.aborted = true
		close(p.done)
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// runState is the per-repetition state the wrappers share.
type runState struct {
	gate  chan struct{}
	plan  *killPlan
	trace *tracer
	obs   *runObserver
}

// benchApp wraps one rank's application. It adds no state of its own,
// so its snapshots are the wrapped application's bytes.
type benchApp struct {
	inner app.App
	rank  int
	st    *runState
}

func wrapFactory(f app.Factory, st *runState) app.Factory {
	return func(rank, n int) app.App {
		return &benchApp{inner: f(rank, n), rank: rank, st: st}
	}
}

func (a *benchApp) Steps() int             { return a.inner.Steps() }
func (a *benchApp) Snapshot() []byte       { return a.inner.Snapshot() }
func (a *benchApp) Restore(b []byte) error { return a.inner.Restore(b) }

// Step holds step 0 until the timed region opens, serves a planned kill
// at step entry, and in traced repetitions times the step and its
// Send/Recv calls.
func (a *benchApp) Step(env app.Env, s int) {
	if s == 0 {
		<-a.st.gate
	}
	if a.st.plan != nil {
		a.st.plan.at(a.rank, s)
	}
	tr := a.st.trace
	if tr == nil {
		a.inner.Step(env, s)
		return
	}
	rt := &tr.ranks[a.rank]
	start := time.Now()
	a.inner.Step(timedEnv{Env: env, rt: rt}, s)
	end := time.Now()
	rt.stepNS.Add(int64(end.Sub(start)))
	rt.steps.Add(1)
	rt.lastStepEnd.Store(end.UnixNano())
}

// timedEnv times the application's calls into the harness.
type timedEnv struct {
	app.Env
	rt *rankTimes
}

func (e timedEnv) Send(dest int, tag int32, data []byte) {
	start := time.Now()
	e.Env.Send(dest, tag, data)
	e.rt.sendNS.Add(int64(time.Since(start)))
	e.rt.sends.Add(1)
}

func (e timedEnv) Recv(source int, tag int32) ([]byte, int) {
	start := time.Now()
	data, from := e.Env.Recv(source, tag)
	e.rt.recvNS.Add(int64(time.Since(start)))
	e.rt.recvs.Add(1)
	return data, from
}

// rankTimes accumulates one rank's application-side timings. Killed and
// recovered incarnations of a rank may overlap briefly, hence atomics.
type rankTimes struct {
	stepNS, sendNS, recvNS atomic.Int64
	steps, sends, recvs    atomic.Int64
	lastStepEnd            atomic.Int64
	_                      [64]byte // keep ranks on separate cache lines
}

// runObserver is the harness.Observer of every repetition. Untraced it
// records only each rank's last delivery index and recovery completions.
type runObserver struct {
	lastDeliver []atomic.Int64
	recovered   chan int
	trace       *tracer
}

func newRunObserver(n int, tr *tracer) *runObserver {
	// One completion per kill cycle is in flight at a time; the buffer
	// only absorbs completions nobody waits for (a trivial recovery).
	return &runObserver{lastDeliver: make([]atomic.Int64, n), recovered: make(chan int, 16), trace: tr}
}

func (o *runObserver) OnSend(int, int, int64, bool) {}

func (o *runObserver) OnDeliver(rank, _ int, _, deliverIndex, _ int64) {
	o.lastDeliver[rank].Store(deliverIndex)
}

func (o *runObserver) OnCheckpoint(int, int, int64) {}
func (o *runObserver) OnKill(int)                   {}
func (o *runObserver) OnRecover(int, int)           {}

func (o *runObserver) OnRecoveryPhase(rank int, phase string, d time.Duration) {
	if o.trace != nil {
		o.trace.addPhase(phase, d)
	}
}

// OnRecoveryComplete runs under the victim's rank lock: never block.
func (o *runObserver) OnRecoveryComplete(rank int, _ time.Duration) {
	select {
	case o.recovered <- rank:
	default:
	}
}

func (o *runObserver) OnRollback(_, expect int) {
	if o.trace != nil {
		o.trace.rollbackMsgs.Add(int64(expect))
	}
}

func (o *runObserver) OnResponse(int, int) {
	if o.trace != nil {
		o.trace.responses.Add(1)
	}
}

func (o *runObserver) OnIngestRejected(int, string) {}

// maxPigSamples bounds the piggybacks captured for the wire probes.
const maxPigSamples = 1024

// tracer collects one traced repetition's per-layer data.
type tracer struct {
	ranks []rankTimes
	reg   *obs.Registry

	mu     sync.Mutex
	stalls []time.Duration
	phases map[string][]time.Duration
	// pigs holds, in order, copies of the piggybacks delivered on the
	// first channel that delivers (capKey = to<<32 | from), for the wire
	// probes.
	capKey atomic.Int64
	pigN   atomic.Int64
	pigs   [][]byte

	rollbackMsgs, responses atomic.Int64
	stable                  *timedBackend
}

func newTracer(n int) *tracer {
	t := &tracer{
		ranks:  make([]rankTimes, n),
		reg:    obs.NewRegistry(n),
		phases: make(map[string][]time.Duration),
	}
	t.capKey.Store(-1)
	return t
}

func (t *tracer) addPhase(phase string, d time.Duration) {
	t.mu.Lock()
	t.phases[phase] = append(t.phases[phase], d)
	t.mu.Unlock()
}

// Wrap implements layer.Interceptor.
func (t *tracer) Wrap(next layer.Handler) layer.Handler {
	return traceHandler{Forward: layer.Forward{Next: next}, t: t}
}

type traceHandler struct {
	layer.Forward
	t *tracer
}

// Deliver captures the piggybacks of the first channel that delivers.
// Only that channel's receiver takes the lock.
func (h traceHandler) Deliver(m *layer.Msg) {
	t := h.t
	key := int64(m.Rank)<<32 | int64(m.Peer)
	if t.capKey.Load() < 0 {
		t.capKey.CompareAndSwap(-1, key)
	}
	if t.capKey.Load() == key && t.pigN.Load() < maxPigSamples {
		t.mu.Lock()
		t.pigs = append(t.pigs, append([]byte(nil), m.Piggyback...))
		t.pigN.Store(int64(len(t.pigs)))
		t.mu.Unlock()
	}
	h.Forward.Deliver(m)
}

// Checkpoint closes a checkpoint stall span: from the end of the rank's
// previous step to the checkpoint notification, which the harness sends
// once the snapshot is staged and before the next step starts.
func (h traceHandler) Checkpoint(info *layer.CheckpointInfo) {
	now := time.Now().UnixNano()
	if prev := h.t.ranks[info.Rank].lastStepEnd.Load(); prev > 0 && now > prev {
		h.t.mu.Lock()
		h.t.stalls = append(h.t.stalls, time.Duration(now-prev))
		h.t.mu.Unlock()
	}
	h.Forward.Checkpoint(info)
}

// deferredClose hands the cluster a backend whose Close only marks it
// released; the benchmark closes the real backend once every cluster
// goroutine has exited. Cluster.Close closes its backend while a
// receiver may still be applying a CHECKPOINT_ADVANCE, whose sender-log
// Delete then panics on a closed disk backend and takes the process
// down. The mutations that arrive after the release are counted and
// reported instead.
type deferredClose struct {
	stable.Backend
	released atomic.Bool
	late     atomic.Int64
}

func (d *deferredClose) Close() error {
	d.released.Store(true)
	return nil
}

func (d *deferredClose) noteLate() {
	if d.released.Load() {
		d.late.Add(1)
	}
}

func (d *deferredClose) Put(key string, data []byte) error {
	d.noteLate()
	return d.Backend.Put(key, data)
}

func (d *deferredClose) PutLazy(key string, data []byte) error {
	d.noteLate()
	return d.Backend.PutLazy(key, data)
}

func (d *deferredClose) Delete(key string) error {
	d.noteLate()
	return d.Backend.Delete(key)
}

func (d *deferredClose) Rename(oldKey, newKey string) error {
	d.noteLate()
	return d.Backend.Rename(oldKey, newKey)
}

// maxValueSizes bounds the stable value sizes kept for the disk probe.
const maxValueSizes = 4096

// timedBackend times the mutations a cluster makes on its stable backend.
type timedBackend struct {
	stable.Backend

	mu                   sync.Mutex
	put, putLazy, syncs  []time.Duration
	sizes                []int
	ops, bytes, ckptPuts atomic.Int64
	ckptBytes            atomic.Int64
}

func (b *timedBackend) record(dst *[]time.Duration, d time.Duration, size int) {
	b.mu.Lock()
	*dst = append(*dst, d)
	if size >= 0 && len(b.sizes) < maxValueSizes {
		b.sizes = append(b.sizes, size)
	}
	b.mu.Unlock()
}

func (b *timedBackend) countWrite(key string, n int) {
	b.ops.Add(1)
	b.bytes.Add(int64(n))
	if strings.HasPrefix(key, "ckpt/") {
		b.ckptPuts.Add(1)
		b.ckptBytes.Add(int64(n))
	}
}

func (b *timedBackend) Put(key string, data []byte) error {
	start := time.Now()
	err := b.Backend.Put(key, data)
	b.record(&b.put, time.Since(start), len(data))
	b.countWrite(key, len(data))
	return err
}

func (b *timedBackend) PutLazy(key string, data []byte) error {
	start := time.Now()
	err := b.Backend.PutLazy(key, data)
	b.record(&b.putLazy, time.Since(start), len(data))
	b.countWrite(key, len(data))
	return err
}

func (b *timedBackend) Delete(key string) error {
	b.ops.Add(1)
	return b.Backend.Delete(key)
}

func (b *timedBackend) Rename(oldKey, newKey string) error {
	b.ops.Add(1)
	return b.Backend.Rename(oldKey, newKey)
}

func (b *timedBackend) Sync() error {
	start := time.Now()
	err := b.Backend.Sync()
	b.record(&b.syncs, time.Since(start), -1)
	b.ops.Add(1)
	return err
}
