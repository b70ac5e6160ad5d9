package fabric

// Timing-model tests on a fake clock. Each pins an exact due time of the
// link service model: serial service, one latency charge per coalesced
// batch, seed-reproducible jitter, parking at the due time on a dead or
// stalled destination, and rendezvous completion at delivery.

import (
	"math/rand/v2"
	"testing"
	"time"

	"windar/internal/clock"
	"windar/internal/wire"
)

// quiet is how long a negative check waits for a delivery that must not
// happen: long enough for any runnable delivery to land on an idle box.
const quiet = 5 * time.Millisecond

func newFakeFabric(t *testing.T, n int, cfg Config) (*Fabric, *clock.Fake) {
	t.Helper()
	fc := clock.NewFake(time.Unix(1000, 0))
	cfg.Clock = fc
	return newTestFabric(t, n, cfg), fc
}

// inboxLen is the number of envelopes waiting in rank's current inbox.
func inboxLen(f *Fabric, rank int) int {
	b := f.ranks[rank].inbox()
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue)
}

// waitFor polls cond in real time, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// advanceTo moves the fake clock to at once the fabric has armed a timer
// for its next due batch.
func advanceTo(t *testing.T, fc *clock.Fake, at time.Time) {
	t.Helper()
	waitFor(t, "a fabric timer", func() bool { return fc.Pending() > 0 })
	if d := at.Sub(fc.Now()); d > 0 {
		fc.Advance(d)
	}
}

// expectArrival checks that rank's inbox reaches want envelopes exactly
// at due: not a nanosecond earlier, and promptly once due is reached.
func expectArrival(t *testing.T, f *Fabric, fc *clock.Fake, rank int, due time.Time, want int) {
	t.Helper()
	advanceTo(t, fc, due.Add(-time.Nanosecond))
	time.Sleep(quiet)
	if got := inboxLen(f, rank); got >= want {
		t.Fatalf("rank %d holds %d envelopes at %v, before due %v", rank, got, fc.Now(), due)
	}
	fc.Advance(time.Nanosecond)
	waitFor(t, "delivery at due time", func() bool { return inboxLen(f, rank) >= want })
	if got := inboxLen(f, rank); got != want {
		t.Fatalf("rank %d holds %d envelopes at due, want %d", rank, got, want)
	}
}

// encSize is the wire size the fabric charges bandwidth for.
func encSize(env *wire.Envelope) int64 { return int64(len(wire.AppendEncode(nil, env))) }

// bwDelay is the jitter-free service time of size bytes.
func bwDelay(base time.Duration, bps, size int64) time.Duration {
	return base + time.Duration(size*int64(time.Second)/bps)
}

func TestFakeClockSerialService(t *testing.T) {
	const base, bps = 100 * time.Microsecond, 10 << 20
	f, fc := newFakeFabric(t, 2, Config{BaseLatency: base, BytesPerSecond: bps})
	envs := make([]*wire.Envelope, 4)
	for i := range envs {
		envs[i] = appEnv(0, 1, int64(i+1), string(make([]byte, 100*(i+1))))
		mustSend(t, f, envs[i], SendOpts{})
	}
	// All four were queued at once; the k-th arrives after the sum of
	// the first k service times, because each starts when its
	// predecessor is delivered.
	due := fc.Now()
	for i, env := range envs {
		due = due.Add(bwDelay(base, bps, encSize(env)))
		expectArrival(t, f, fc, 1, due, i+1)
	}
	if n := f.InFlight(); n != 0 {
		t.Fatalf("InFlight = %d after every delivery", n)
	}
	for i := int64(1); i <= 4; i++ {
		if got := recvOne(t, f, 1); got.SendIndex != i {
			t.Fatalf("got index %d, want %d", got.SendIndex, i)
		}
	}
}

func TestFakeClockBatchPaysOneLatency(t *testing.T) {
	const base, bps = 100 * time.Microsecond, 10 << 20
	envs := make([]*wire.Envelope, 5)
	for i := range envs {
		envs[i] = appEnv(0, 1, int64(i), "batched-payload")
	}
	pair := encSize(envs[1]) + encSize(envs[2])
	f, fc := newFakeFabric(t, 2, Config{BaseLatency: base, BytesPerSecond: bps, BatchBytes: pair})
	t0 := fc.Now()
	// Message 0 enters service alone; 1-4 queue behind it and are
	// coalesced two at a time, each pair paying one base latency plus
	// its combined transmission time.
	mustSend(t, f, envs[0], SendOpts{})
	waitFor(t, "message 0 in service", func() bool { return fc.Pending() > 0 })
	for _, env := range envs[1:] {
		mustSend(t, f, env, SendOpts{})
	}
	if n := f.InFlight(); n != 5 {
		t.Fatalf("InFlight = %d, want 5", n)
	}
	due := t0.Add(bwDelay(base, bps, encSize(envs[0])))
	expectArrival(t, f, fc, 1, due, 1)
	due = due.Add(bwDelay(base, bps, pair))
	expectArrival(t, f, fc, 1, due, 3)
	due = due.Add(bwDelay(base, bps, encSize(envs[3])+encSize(envs[4])))
	expectArrival(t, f, fc, 1, due, 5)
	for i := int64(0); i < 5; i++ {
		if got := recvOne(t, f, 1); got.SendIndex != i {
			t.Fatalf("batched FIFO: got index %d, want %d", got.SendIndex, i)
		}
	}
}

// jitterDelays reproduces the delay sequence of link from->to: one draw
// per serviced batch from the link's PCG, seeded by (Seed, from·N+to).
func jitterDelays(seed int64, n, from, to int, base time.Duration, jf float64, count int) []time.Duration {
	var rng rand.PCG
	rng.Seed(uint64(seed), uint64(from*n+to))
	out := make([]time.Duration, count)
	for i := range out {
		u := float64(rng.Uint64()>>11) / (1 << 53)
		out[i] = base + time.Duration(u*jf*float64(base))
	}
	return out
}

func TestFakeClockJitterReproducibleFromSeed(t *testing.T) {
	const base, jf, seed = 100 * time.Microsecond, 0.5, 42
	want := jitterDelays(seed, 3, 2, 1, base, jf, 5)
	if other := jitterDelays(seed+1, 3, 2, 1, base, jf, 5); other[0] == want[0] && other[1] == want[1] {
		t.Fatal("different seeds gave the same jitter draws")
	}
	for run := 0; run < 2; run++ {
		f, fc := newFakeFabric(t, 3, Config{BaseLatency: base, JitterFraction: jf, Seed: seed})
		due := fc.Now()
		for i := 1; i <= len(want); i++ {
			mustSend(t, f, appEnv(2, 1, int64(i), "j"), SendOpts{})
		}
		for i, d := range want {
			if d == base {
				t.Fatalf("draw %d carries no jitter", i)
			}
			due = due.Add(d)
			expectArrival(t, f, fc, 1, due, i+1)
		}
	}
}

// checkParkAtDue drives one dead-or-stalled window on link 0->1: the
// batch due inside the window parks at the destination without holding
// up other links, and release delivers it at once, with the queued
// successor's service starting at the release time.
func checkParkAtDue(t *testing.T, block, release func(f *Fabric)) {
	const base = 100 * time.Microsecond
	f, fc := newFakeFabric(t, 3, Config{BaseLatency: base})
	t0 := fc.Now()
	mustSend(t, f, appEnv(0, 1, 1, "parked"), SendOpts{})
	mustSend(t, f, appEnv(0, 1, 2, "behind"), SendOpts{})
	block(f)
	advanceTo(t, fc, t0.Add(base))
	time.Sleep(quiet)
	if got := inboxLen(f, 1); got != 0 {
		t.Fatalf("blocked destination received %d envelopes", got)
	}
	if n := f.InFlight(); n != 2 {
		t.Fatalf("InFlight = %d while parked, want 2", n)
	}
	// Another link keeps its own timing while 0->1 is parked.
	t1 := fc.Now()
	mustSend(t, f, appEnv(0, 2, 1, "other"), SendOpts{})
	expectArrival(t, f, fc, 2, t1.Add(base), 1)

	fc.Advance(time.Millisecond)
	t2 := fc.Now()
	release(f)
	waitFor(t, "parked batch released", func() bool { return inboxLen(f, 1) == 1 })
	if !fc.Now().Equal(t2) {
		t.Fatal("clock moved during release")
	}
	expectArrival(t, f, fc, 1, t2.Add(base), 2)
	for i := int64(1); i <= 2; i++ {
		if got := recvOne(t, f, 1); got.SendIndex != i {
			t.Fatalf("post-release order: got %d, want %d", got.SendIndex, i)
		}
	}
}

func TestFakeClockParkOnDeadDestination(t *testing.T) {
	checkParkAtDue(t, func(f *Fabric) { f.Kill(1) }, func(f *Fabric) { f.Revive(1) })
}

func TestFakeClockParkOnStalledDestination(t *testing.T) {
	checkParkAtDue(t, func(f *Fabric) { f.Stall(1) }, func(f *Fabric) { f.Unstall(1) })
}

func TestFakeClockRendezvousReturnsAtDelivery(t *testing.T) {
	const base = 100 * time.Microsecond
	f, fc := newFakeFabric(t, 2, Config{BaseLatency: base})
	t0 := fc.Now()
	done := make(chan error, 1)
	go func() { done <- f.Send(appEnv(0, 1, 1, "sync"), SendOpts{Rendezvous: true}) }()
	advanceTo(t, fc, t0.Add(base-time.Nanosecond))
	select {
	case err := <-done:
		t.Fatalf("rendezvous returned before delivery: %v", err)
	case <-time.After(quiet):
	}
	fc.Advance(time.Nanosecond)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("rendezvous: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("rendezvous never returned after delivery")
	}
	if got := inboxLen(f, 1); got != 1 {
		t.Fatalf("rendezvous returned with %d envelopes in the inbox, want 1", got)
	}
}
