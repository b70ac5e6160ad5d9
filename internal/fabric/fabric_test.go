package fabric

import (
	"sync"
	"testing"
	"time"
	"unsafe"

	"windar/internal/wire"
)

func newTestFabric(t *testing.T, n int, cfg Config) *Fabric {
	t.Helper()
	cfg.N = n
	f := New(cfg)
	t.Cleanup(f.Close)
	return f
}

func appEnv(from, to int, idx int64, payload string) *wire.Envelope {
	return &wire.Envelope{
		Kind: wire.KindApp, From: from, To: to,
		SendIndex: idx, Payload: []byte(payload),
	}
}

func mustSend(t *testing.T, f *Fabric, env *wire.Envelope, opts SendOpts) {
	t.Helper()
	if err := f.Send(env, opts); err != nil {
		t.Fatalf("Send: %v", err)
	}
}

func recvOne(t *testing.T, f *Fabric, rank int) *wire.Envelope {
	t.Helper()
	type res struct {
		env *wire.Envelope
		ok  bool
	}
	ch := make(chan res, 1)
	go func() {
		env, ok := f.Recv(rank)
		ch <- res{env, ok}
	}()
	select {
	case r := <-ch:
		if !r.ok {
			t.Fatal("Recv returned ok=false")
		}
		return r.env
	case <-time.After(10 * time.Second):
		t.Fatal("Recv timed out")
		return nil
	}
}

func TestSendRecvBasic(t *testing.T) {
	f := newTestFabric(t, 2, Config{})
	mustSend(t, f, appEnv(0, 1, 1, "hello"), SendOpts{})
	got := recvOne(t, f, 1)
	if got.From != 0 || got.To != 1 || string(got.Payload) != "hello" {
		t.Fatalf("got %+v", got)
	}
}

func TestPerLinkFIFO(t *testing.T) {
	f := newTestFabric(t, 2, Config{JitterFraction: 0.5, BaseLatency: 100 * time.Microsecond, Seed: 7})
	const n = 50
	for i := int64(1); i <= n; i++ {
		mustSend(t, f, appEnv(0, 1, i, "x"), SendOpts{})
	}
	for i := int64(1); i <= n; i++ {
		got := recvOne(t, f, 1)
		if got.SendIndex != i {
			t.Fatalf("FIFO violated: got index %d, want %d", got.SendIndex, i)
		}
	}
}

func TestCrossLinkInterleaving(t *testing.T) {
	// Messages from different senders may interleave arbitrarily, but
	// all must arrive.
	f := newTestFabric(t, 3, Config{BaseLatency: 50 * time.Microsecond, JitterFraction: 2, Seed: 3})
	const per = 20
	for i := int64(1); i <= per; i++ {
		mustSend(t, f, appEnv(0, 2, i, "a"), SendOpts{})
		mustSend(t, f, appEnv(1, 2, i, "b"), SendOpts{})
	}
	seen := map[int][]int64{}
	for i := 0; i < 2*per; i++ {
		got := recvOne(t, f, 2)
		seen[got.From] = append(seen[got.From], got.SendIndex)
	}
	for from, idxs := range seen {
		if len(idxs) != per {
			t.Fatalf("from %d: got %d msgs", from, len(idxs))
		}
		for i, idx := range idxs {
			if idx != int64(i+1) {
				t.Fatalf("from %d: per-link order violated at %d: %v", from, i, idxs)
			}
		}
	}
}

func TestBandwidthDelaysDelivery(t *testing.T) {
	// 1 MB at 10 MB/s should take ~100 ms; with infinite bandwidth it is
	// nearly instant. Compare the two.
	payload := make([]byte, 1<<20)

	slow := newTestFabric(t, 2, Config{BytesPerSecond: 10 << 20})
	start := time.Now()
	mustSend(t, slow, &wire.Envelope{Kind: wire.KindApp, From: 0, To: 1, Payload: payload}, SendOpts{})
	recvOne(t, slow, 1)
	slowDur := time.Since(start)

	fast := newTestFabric(t, 2, Config{})
	start = time.Now()
	mustSend(t, fast, &wire.Envelope{Kind: wire.KindApp, From: 0, To: 1, Payload: payload}, SendOpts{})
	recvOne(t, fast, 1)
	fastDur := time.Since(start)

	if slowDur < 50*time.Millisecond {
		t.Fatalf("bandwidth not charged: slow transfer took %v", slowDur)
	}
	if fastDur > slowDur {
		t.Fatalf("infinite bandwidth slower than finite: %v vs %v", fastDur, slowDur)
	}
}

func TestRendezvousWaitsForAcceptance(t *testing.T) {
	f := newTestFabric(t, 2, Config{BaseLatency: 20 * time.Millisecond})
	start := time.Now()
	mustSend(t, f, appEnv(0, 1, 1, "x"), SendOpts{Rendezvous: true})
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("rendezvous returned after %v, before latency elapsed", d)
	}
	recvOne(t, f, 1)
}

func TestRendezvousBlocksOnDeadReceiverUntilRevive(t *testing.T) {
	f := newTestFabric(t, 2, Config{})
	f.Kill(1)
	done := make(chan error, 1)
	go func() {
		done <- f.Send(appEnv(0, 1, 1, "x"), SendOpts{Rendezvous: true})
	}()
	select {
	case err := <-done:
		t.Fatalf("rendezvous to dead rank returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	f.Revive(1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Send after revive: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("send never completed after revive")
	}
	got := recvOne(t, f, 1)
	if string(got.Payload) != "x" {
		t.Fatalf("parked message corrupted: %+v", got)
	}
}

func TestSendAbort(t *testing.T) {
	f := newTestFabric(t, 2, Config{})
	f.Kill(1)
	abort := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- f.Send(appEnv(0, 1, 1, "x"), SendOpts{Rendezvous: true, Abort: abort})
	}()
	time.Sleep(10 * time.Millisecond)
	close(abort)
	select {
	case err := <-done:
		if err != ErrAborted {
			t.Fatalf("err = %v, want ErrAborted", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("aborted send never returned")
	}
}

func TestKillDropsInboxAndUnblocksReceivers(t *testing.T) {
	f := newTestFabric(t, 2, Config{})
	mustSend(t, f, appEnv(0, 1, 1, "lost"), SendOpts{Rendezvous: true})
	// The message is now in rank 1's inbox. Kill drops it.
	recvErr := make(chan bool, 1)
	go func() {
		_, ok := f.Recv(1)
		recvErr <- ok
	}()
	time.Sleep(5 * time.Millisecond)
	f.Kill(1)
	select {
	case ok := <-recvErr:
		if ok {
			// The receiver raced the kill and got the message; that is a
			// legal interleaving only if it started before the kill —
			// but we waited for the inbox to be populated, so Recv
			// should have returned it *before* the kill. Accept it.
			t.Log("receiver drained message before kill")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("receiver not unblocked by kill")
	}
	// After revival, the dropped message must not reappear.
	f.Revive(1)
	mustSend(t, f, appEnv(0, 1, 2, "fresh"), SendOpts{})
	got := recvOne(t, f, 1)
	if string(got.Payload) != "fresh" {
		t.Fatalf("dropped message reappeared: %+v", got)
	}
}

func TestInFlightToDeadRankParksAndDelivers(t *testing.T) {
	f := newTestFabric(t, 2, Config{BaseLatency: 30 * time.Millisecond})
	mustSend(t, f, appEnv(0, 1, 1, "parked"), SendOpts{})
	f.Kill(1) // message still in transit
	time.Sleep(60 * time.Millisecond)
	f.Revive(1)
	got := recvOne(t, f, 1)
	if string(got.Payload) != "parked" {
		t.Fatalf("got %+v", got)
	}
}

func TestLinkBufferBackpressure(t *testing.T) {
	// Tiny link buffer + dead receiver: message 1 enters service as it
	// is sent and parks on the dead rank, message 2 fills the buffer
	// (an oversized message is admitted onto an empty buffer), and the
	// third buffered send must block until the receiver revives and the
	// link drains.
	f := newTestFabric(t, 2, Config{LinkBufferBytes: 64})
	f.Kill(1)
	big := make([]byte, 256)
	for i := int64(1); i <= 2; i++ {
		mustSend(t, f, &wire.Envelope{Kind: wire.KindApp, From: 0, To: 1, SendIndex: i, Payload: big}, SendOpts{})
	}
	done := make(chan error, 1)
	go func() {
		done <- f.Send(&wire.Envelope{Kind: wire.KindApp, From: 0, To: 1, SendIndex: 3, Payload: big}, SendOpts{})
	}()
	select {
	case err := <-done:
		t.Fatalf("send into a full link buffer returned early: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	f.Revive(1)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("send failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("backpressured send never completed")
	}
	for want := int64(1); want <= 3; want++ {
		got := recvOne(t, f, 1)
		if got.SendIndex != want {
			t.Fatalf("order violated: got %d want %d", got.SendIndex, want)
		}
	}
}

// TestKillAbortsOnlyTheKilledRanksSenders blocks one sender on a full
// link from each of ranks 0 and 1 and kills rank 0 the way the harness
// does: fabric Kill first, then the rank's abort channel. Rank 0's
// sender must return ErrAborted promptly without its message ever
// arriving; rank 1's sender must stay blocked until its link drains.
func TestKillAbortsOnlyTheKilledRanksSenders(t *testing.T) {
	f := newTestFabric(t, 3, Config{LinkBufferBytes: 64})
	f.Kill(2)
	big := make([]byte, 256)
	var aborts [2]chan struct{}
	var done [2]chan error
	for from := 0; from < 2; from++ {
		for i := int64(1); i <= 2; i++ {
			mustSend(t, f, &wire.Envelope{Kind: wire.KindApp, From: from, To: 2, SendIndex: i, Payload: big}, SendOpts{})
		}
		aborts[from], done[from] = make(chan struct{}), make(chan error, 1)
		go func(from int) {
			env := &wire.Envelope{Kind: wire.KindApp, From: from, To: 2, SendIndex: 3, Payload: big}
			done[from] <- f.Send(env, SendOpts{Abort: aborts[from]})
		}(from)
	}
	time.Sleep(10 * time.Millisecond)
	f.Kill(0)
	// The abort fires well after Kill has returned, as when a harness
	// rank unwinds after its transport kill.
	time.Sleep(10 * time.Millisecond)
	close(aborts[0])
	select {
	case err := <-done[0]:
		if err != ErrAborted {
			t.Fatalf("killed rank's sender: err = %v, want ErrAborted", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("killed rank's blocked sender never returned")
	}
	select {
	case err := <-done[1]:
		t.Fatalf("sender on another link returned on Kill(0): %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	f.Revive(2)
	if err := <-done[1]; err != nil {
		t.Fatalf("rank 1's send after the link drained: %v", err)
	}
	last := map[int]int64{}
	for i := 0; i < 5; i++ {
		got := recvOne(t, f, 2)
		if got.SendIndex != last[got.From]+1 {
			t.Fatalf("from %d: got index %d after %d", got.From, got.SendIndex, last[got.From])
		}
		last[got.From] = got.SendIndex
	}
	if last[0] != 2 || last[1] != 3 {
		t.Fatalf("delivered through index %v, want 0:2 (aborted 3 never sent) and 1:3", last)
	}
}

// TestLinkSize pins the per-link footprint: a fabric holds n² links, so
// every byte here is multiplied by the square of the rank count.
func TestLinkSize(t *testing.T) {
	if got := unsafe.Sizeof(link{}); got > 128 {
		t.Fatalf("link is %d B, want <= 128", got)
	}
}

func TestAliveReporting(t *testing.T) {
	f := newTestFabric(t, 2, Config{})
	if !f.Alive(0) || !f.Alive(1) {
		t.Fatal("ranks should start alive")
	}
	f.Kill(1)
	if f.Alive(1) {
		t.Fatal("killed rank reported alive")
	}
	f.Revive(1)
	if !f.Alive(1) {
		t.Fatal("revived rank reported dead")
	}
}

func TestCloseUnblocksEverything(t *testing.T) {
	f := New(Config{N: 2})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		f.Recv(0)
	}()
	f.Kill(1)
	go func() {
		defer wg.Done()
		f.Send(appEnv(0, 1, 1, "x"), SendOpts{Rendezvous: true})
	}()
	time.Sleep(10 * time.Millisecond)
	f.Close()
	// The parked rendezvous send started the scheduler; Close must have
	// waited for it to exit.
	select {
	case <-f.sched.exited:
	default:
		t.Fatal("Close returned before the scheduler exited")
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not unblock operations")
	}
}

func TestManyRanksAllPairs(t *testing.T) {
	const n = 8
	f := newTestFabric(t, n, Config{BaseLatency: time.Microsecond, JitterFraction: 1, Seed: 42})
	var wg sync.WaitGroup
	for from := 0; from < n; from++ {
		wg.Add(1)
		go func(from int) {
			defer wg.Done()
			for to := 0; to < n; to++ {
				if to == from {
					continue
				}
				for k := int64(1); k <= 5; k++ {
					if err := f.Send(appEnv(from, to, k, "m"), SendOpts{}); err != nil {
						t.Errorf("send %d->%d: %v", from, to, err)
						return
					}
				}
			}
		}(from)
	}
	counts := make([]int, n)
	var rg sync.WaitGroup
	for to := 0; to < n; to++ {
		rg.Add(1)
		go func(to int) {
			defer rg.Done()
			for i := 0; i < (n-1)*5; i++ {
				if _, ok := f.Recv(to); !ok {
					t.Errorf("recv %d: closed early", to)
					return
				}
				counts[to]++
			}
		}(to)
	}
	wg.Wait()
	done := make(chan struct{})
	go func() { rg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("all-pairs exchange stalled")
	}
	for to, c := range counts {
		if c != (n-1)*5 {
			t.Fatalf("rank %d received %d, want %d", to, c, (n-1)*5)
		}
	}
}

func TestSelfSend(t *testing.T) {
	f := newTestFabric(t, 2, Config{})
	mustSend(t, f, appEnv(0, 0, 1, "self"), SendOpts{})
	got := recvOne(t, f, 0)
	if string(got.Payload) != "self" {
		t.Fatalf("self send failed: %+v", got)
	}
}

func TestBadEndpointsRejected(t *testing.T) {
	f := newTestFabric(t, 2, Config{})
	if err := f.Send(appEnv(0, 5, 1, "x"), SendOpts{}); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
	if err := f.Send(appEnv(-1, 1, 1, "x"), SendOpts{}); err == nil {
		t.Fatal("negative source accepted")
	}
}
