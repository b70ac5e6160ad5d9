// Allocation probes for the zero-alloc hot paths. Each probe drives one
// //windar:hotpath-annotated path in a steady state and measures its
// allocations per operation with testing.AllocsPerRun; windar-bench
// -fig alloc turns the results into BENCH_alloc.json and CI gates on
// them. The probes live in this package because the delivery-scan probe
// needs an (un-started) rank runtime; the codec and protocol probes ride
// along so the whole budget is measured in one place.
package harness

import (
	"io"
	"testing"
	"time"

	"windar/internal/app"
	"windar/internal/ckpt"
	"windar/internal/core"
	"windar/internal/fabric"
	"windar/internal/obs"
	"windar/internal/proto"
	"windar/internal/vclock"
	"windar/internal/wire"
	"windar/layer"
)

// AllocProbe measures one hot path's steady-state heap allocations.
type AllocProbe struct {
	// Name keys the path in BENCH_alloc.json.
	Name string
	// F returns allocations per operation (testing.AllocsPerRun).
	F func() float64
}

// allocProbeRuns amortizes one-time warm-up allocations (decode scratch,
// delta bases) far below the gate's 0.5 tolerance.
const allocProbeRuns = 200

// AllocProbes returns the hot-path probe set in a stable order.
func AllocProbes() []AllocProbe {
	return []AllocProbe{
		{Name: "delivery_scan", F: probeDeliveryScan},
		{Name: "delivery_scan_chain", F: probeDeliveryScanChain},
		{Name: "delivery_scan_traced", F: probeDeliveryScanTraced},
		{Name: "pig_encode_delta", F: probePigEncodeDelta},
		{Name: "pig_encode_full", F: probePigEncodeFull},
		{Name: "pig_decode", F: probePigDecode},
		{Name: "hist_record", F: probeHistRecord},
		{Name: "frame_append", F: probeFrameAppend},
		{Name: "frame_read", F: probeFrameRead},
		{Name: "log_append_release", F: probeLogAppendRelease},
		{Name: "ckpt_encode", F: probeCkptEncode},
		{Name: "fabric_fanout", F: probeFabricFanout},
	}
}

// probeApp is the trivial application the delivery probe's cluster is
// built around; its loops never run because the cluster is not started.
type probeApp struct{}

func (probeApp) Steps() int           { return 1 }
func (probeApp) Step(app.Env, int)    {}
func (probeApp) Snapshot() []byte     { return nil }
func (probeApp) Restore([]byte) error { return nil }

// probeDeliveryScan measures one full delivery: the FIFO-head scan
// (findDeliverableLocked, including the TDI Deliverable probe and
// piggyback decode) plus deliverLocked committing the message through
// the handler chain (protocol ingest, counters, observer fan-out). The
// cluster is never started, so the runtime's queues are driven directly
// under its lock, exactly as the receiver loop would.
func probeDeliveryScan() float64 { return deliveryScanAllocs(nil, false) }

// spanProbeObserver is the span-aware observer of the traced probe: the
// harness resolves its SpanObserver view, so the delivery flows through
// the OnDeliverSpan dispatch exactly as it does under a trace recorder —
// without the recorder's own ring costs, which are not the hot path
// under gate.
type spanProbeObserver struct{ nopObserver }

func (spanProbeObserver) OnSendSpan(int, int, int64, bool, layer.SpanContext)            {}
func (spanProbeObserver) OnDeliverSpan(int, int, int64, int64, int64, layer.SpanContext) {}

// probeDeliveryScanTraced is probeDeliveryScan with span tracing on: the
// chain gains the spanHandler, every queued envelope carries a span
// context, and the observer fan-out takes the span-carrying dispatch.
// Tracing must not add a single allocation to the delivery path — the
// span is copied by value end to end.
func probeDeliveryScanTraced() float64 { return deliveryScanAllocs(nil, true) }

// probeCounter is the user interceptor of the chain probe: a
// Forward-embedding layer counting deliveries with plain integer state —
// the minimal well-behaved custom interceptor.
type probeCounter struct {
	layer.Forward
	delivered int64
}

func (p *probeCounter) Deliver(m *layer.Msg) {
	p.delivered++
	p.Forward.Deliver(m)
}

// probeDeliveryScanChain is probeDeliveryScan with a user interceptor in
// the stack: the layer contract promises that a well-behaved interceptor
// adds zero allocations per delivered message, and this probe gates it.
func probeDeliveryScanChain() float64 {
	counter := &probeCounter{}
	return deliveryScanAllocs([]layer.Interceptor{
		layer.InterceptorFunc(func(next layer.Handler) layer.Handler {
			counter.Next = next
			return counter
		}),
	}, false)
}

// deliveryScanAllocs drives the shared delivery probe with the given
// user interceptors in the chain, optionally with span tracing armed.
func deliveryScanAllocs(interceptors []layer.Interceptor, traced bool) float64 {
	cfg := Config{N: 2, Interceptors: interceptors, SpanTracing: traced}
	if traced {
		cfg.Observer = spanProbeObserver{}
	}
	c, err := NewCluster(cfg, func(rank, n int) app.App { return probeApp{} })
	if err != nil {
		panic(err)
	}
	defer c.Close()
	r, err := c.newRuntime(0, 0)
	if err != nil {
		panic(err)
	}
	// A zero-state peer sender: every piggyback demands 0 deliveries, so
	// each queued message is immediately deliverable in FIFO order.
	sender := core.New(1, 2, nil, nil)
	for i := int64(1); i <= allocProbeRuns+4; i++ {
		pig, _ := sender.PiggybackForSend(0, i)
		env := &wire.Envelope{
			Kind: wire.KindApp, From: 1, To: 0, SendIndex: i, Piggyback: pig,
		}
		if traced {
			id := spanID(1, 0, uint32(i))
			env.Span = layer.SpanContext{Trace: id, Span: id}
		}
		r.shards[1].q = append(r.shards[1].q, env)
	}
	return testing.AllocsPerRun(allocProbeRuns, func() {
		r.mu.Lock()
		env := r.findDeliverableLocked(app.AnySource, app.AnyTag)
		if env == nil {
			r.mu.Unlock()
			panic("allocprobe: queued message not deliverable")
		}
		r.deliverLocked(env)
		r.mu.Unlock()
	})
}

// probePigEncodeDelta measures AppendPiggybackForSend on the delta path
// (default refresh cadence, reused buffer).
func probePigEncodeDelta() float64 {
	t := core.New(0, 32, nil, nil)
	buf := make([]byte, 0, 256)
	return testing.AllocsPerRun(allocProbeRuns, func() {
		buf, _ = t.AppendPiggybackForSend(buf[:0], 1)
	})
}

// probePigEncodeFull measures the full-vector encode (refresh cadence 1
// disables deltas — the Fig. 6 baseline).
func probePigEncodeFull() float64 {
	t := core.New(0, 32, nil, nil)
	t.SetRefreshEvery(1)
	buf := make([]byte, 0, 256)
	return testing.AllocsPerRun(allocProbeRuns, func() {
		buf, _ = t.AppendPiggybackForSend(buf[:0], 1)
	})
}

// probePigDecode measures the receive-side piggyback decode (Deliverable
// on a fresh send index: a memo miss decoding a delta into the reused
// scratch vector).
func probePigDecode() float64 {
	recv := core.New(0, 32, nil, nil)
	sender := core.New(1, 32, nil, nil)
	full, _ := sender.PiggybackForSend(0, 1)
	if err := recv.OnDeliver(&wire.Envelope{
		Kind: wire.KindApp, From: 1, To: 0, SendIndex: 1, Piggyback: full,
	}, 1); err != nil {
		panic(err)
	}
	delta, _ := sender.PiggybackForSend(0, 2)
	env := &wire.Envelope{Kind: wire.KindApp, From: 1, To: 0, Piggyback: delta}
	idx := int64(2)
	return testing.AllocsPerRun(allocProbeRuns, func() {
		env.SendIndex = idx
		idx++
		if _, err := recv.Deliverable(env, 1); err != nil {
			panic(err)
		}
	})
}

// probeHistRecord measures one histogram observation.
func probeHistRecord() float64 {
	var h obs.Hist
	v := int64(0)
	return testing.AllocsPerRun(allocProbeRuns, func() {
		h.Record(v)
		v += 997
	})
}

// probeFrameAppend measures framing one envelope into a reused buffer.
func probeFrameAppend() float64 {
	env := &wire.Envelope{
		Kind: wire.KindApp, From: 1, To: 0, SendIndex: 7,
		Piggyback: []byte{0x00, 0x00}, Payload: []byte("payload-bytes"),
	}
	buf := make([]byte, 0, 256)
	return testing.AllocsPerRun(allocProbeRuns, func() {
		buf = wire.AppendFrame(buf[:0], env)
	})
}

// loopReader replays one byte sequence forever, so the frame-read probe
// never hits EOF.
type loopReader struct {
	b   []byte
	off int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.b) {
		l.off = 0
	}
	n := copy(p, l.b[l.off:])
	l.off += n
	return n, nil
}

// probeFrameRead measures FrameReader.Read. Its budget is not zero: the
// decoded envelope and its piggyback/payload copies are fresh
// allocations by contract (the inbox retains them past the next Read) —
// the probe exists to pin that budget, not to drive it to zero.
func probeFrameRead() float64 {
	frame := wire.AppendFrame(nil, &wire.Envelope{
		Kind: wire.KindApp, From: 1, To: 0, SendIndex: 7,
		Piggyback: []byte{0x00, 0x00}, Payload: []byte("payload-bytes"),
	})
	fr := wire.NewFrameReader(&loopReader{b: frame})
	return testing.AllocsPerRun(allocProbeRuns, func() {
		if _, err := fr.Read(); err != nil {
			panic(err)
		}
	})
}

var _ io.Reader = (*loopReader)(nil)

// probeLogAppendRelease measures the sender log's steady state. One
// operation is 1024 appends spread over four destinations, a partial
// release of each destination every 40 appends (a receiver checkpointing
// all but its newest messages) and a full release at the end. That
// crosses several 256-item chunk boundaries per operation, so any chunk
// the log fails to recycle costs at least one allocation per operation.
func probeLogAppendRelease() float64 {
	const dests = 4
	l := proto.NewLog()
	pig, payload := []byte{0x00, 0x00}, []byte("payload-bytes")
	var idx [dests]int64
	op := func() {
		for i := 1; i <= 1024; i++ {
			d := i % dests
			idx[d]++
			l.Append(proto.LogItem{Dest: d, SendIndex: idx[d], Piggyback: pig, Payload: payload})
			if i%40 == 0 {
				for d := range idx {
					l.Release(d, idx[d]-2)
				}
			}
		}
		for d := range idx {
			l.Release(d, idx[d])
		}
	}
	op() // grow the chunk lists and the spare pool to their peak
	return testing.AllocsPerRun(allocProbeRuns, op)
}

// probeCkptEncode measures encoding a checkpoint (64-rank vectors, 256
// retained log items) into a reused buffer, as Manager.Save does.
func probeCkptEncode() float64 {
	cp := &ckpt.Checkpoint{
		Rank: 3, Step: 40, DeliveredCount: 1000,
		AppImage:         make([]byte, 512),
		ProtoState:       make([]byte, 64),
		LastSendIndex:    vclock.New(64),
		LastDeliverIndex: vclock.New(64),
	}
	for i := 0; i < 256; i++ {
		cp.Log = append(cp.Log, proto.LogItem{
			Dest: i % 63, SendIndex: int64(i/63 + 1), Piggyback: []byte{0x00, 0x00}, Payload: []byte("payload-bytes"),
		})
	}
	buf := ckpt.AppendEncode(nil, cp)
	return testing.AllocsPerRun(allocProbeRuns, func() {
		buf = ckpt.AppendEncode(buf[:0], cp)
	})
}

// probeFabricFanout measures the queued fabric path per message: rank 0
// fans one message out to each of 63 peers through a 20µs fabric the way
// the harness transmits (TrySend, Send when refused), and each receiver
// drains and recycles it. A message crosses the pooled encode, the
// link queue, the deadline scheduler, the decode into a pooled envelope
// and the inbox; the one allocation it should cost is the payload copy
// DecodeInto hands the receiver. The result is allocations per message.
func probeFabricFanout() float64 {
	const n = 64
	f := fabric.New(fabric.Config{N: n, BaseLatency: 20 * time.Microsecond})
	defer f.Close()
	envs := make([]wire.Envelope, n)
	inboxes := make([]fabric.Inbox, n)
	for to := 1; to < n; to++ {
		envs[to] = wire.Envelope{Kind: wire.KindApp, From: 0, To: to,
			Piggyback: []byte{0x00, 0x00}, Payload: []byte("payload-bytes")}
		inboxes[to] = f.Inbox(to)
	}
	batch := make([]*wire.Envelope, 0, 4)
	op := func() {
		for to := 1; to < n; to++ {
			env := &envs[to]
			env.SendIndex++
			if !f.TrySend(env) {
				if err := f.Send(env, fabric.SendOpts{}); err != nil {
					panic(err)
				}
			}
		}
		for to := 1; to < n; to++ {
			var ok bool
			if batch, ok = inboxes[to].RecvBatch(batch[:0]); !ok || len(batch) != 1 {
				panic("allocprobe: fan-out message lost")
			}
			wire.Recycle(batch[0])
		}
	}
	op() // warm the link queues, the heap and the envelope pool
	return testing.AllocsPerRun(allocProbeRuns, op) / (n - 1)
}
