package fabric

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"windar/internal/wire"
)

// TestStressConcurrentFailures runs 64 ranks with a tiny link buffer:
// one sender per rank mixing Send, rendezvous Send and TrySend to random
// destinations, one receiver per rank, and a chaos goroutine issuing
// Kill/Revive/Stall/Unstall, then Close. It checks that every link
// delivers in strictly increasing send order within and across
// incarnations, that a killed incarnation's handle never yields an
// envelope, that everything in flight drains once the chaos stops, and
// that Close leaves no goroutine behind. The latency fabric exercises
// the scheduler; the instant one races inline delivery against parked
// and queued batches.
func TestStressConcurrentFailures(t *testing.T) {
	t.Run("latency", func(t *testing.T) {
		stress(t, Config{BaseLatency: 20 * time.Microsecond, JitterFraction: 0.5, Seed: 9})
	})
	t.Run("instant", func(t *testing.T) { stress(t, Config{}) })
}

func stress(t *testing.T, cfg Config) {
	const (
		n        = 64
		perRank  = 300
		chaosFor = 100 * time.Millisecond
	)
	base := runtime.NumGoroutine()
	cfg.N, cfg.LinkBufferBytes = n, 256
	f := New(cfg)

	// rankMu[r] orders chaos on rank r against its receiver picking up
	// a fresh inbox handle; deadHandles collects every killed handle.
	var rankMu [n]sync.Mutex
	var deadMu sync.Mutex
	var deadHandles []Inbox

	var senders, receivers sync.WaitGroup
	var sent, received atomic.Int64

	for r := 0; r < n; r++ {
		receivers.Add(1)
		go func(r int) {
			defer receivers.Done()
			last := make([]int64, n)
			buf := make([]*wire.Envelope, 0, 8)
			for {
				rankMu[r].Lock()
				h := f.Inbox(r)
				rankMu[r].Unlock()
				for {
					var ok bool
					buf, ok = h.RecvBatch(buf[:0])
					if !ok {
						break
					}
					for _, env := range buf {
						if env.To != r || env.SendIndex <= last[env.From] {
							t.Errorf("rank %d: got %d->%d index %d after index %d",
								r, env.From, env.To, env.SendIndex, last[env.From])
						}
						last[env.From] = env.SendIndex
						received.Add(1)
						wire.Recycle(env)
					}
				}
				select {
				case <-f.closed:
					return
				default:
				}
			}
		}(r)
	}

	for from := 0; from < n; from++ {
		senders.Add(1)
		go func(from int) {
			defer senders.Done()
			rng := rand.New(rand.NewPCG(uint64(from), 1))
			next := make([]int64, n)
			for i := 0; i < perRank; i++ {
				to := rng.IntN(n)
				next[to]++
				env := &wire.Envelope{Kind: wire.KindApp, From: from, To: to,
					SendIndex: next[to], Payload: make([]byte, rng.IntN(64))}
				switch k := rng.IntN(8); {
				case k < 4 && f.TrySend(env):
				default:
					if err := f.Send(env, SendOpts{Rendezvous: k == 7}); err != nil {
						t.Errorf("send %d->%d: %v", from, to, err)
						return
					}
				}
				sent.Add(1)
			}
		}(from)
	}

	var alive, stalled [n]bool
	for r := range alive {
		alive[r] = true
	}
	rng := rand.New(rand.NewPCG(9, 9))
	for end := time.Now().Add(chaosFor); time.Now().Before(end); {
		r := rng.IntN(n)
		rankMu[r].Lock()
		switch {
		case rng.IntN(2) == 0 && alive[r]:
			old := f.Inbox(r)
			f.Kill(r)
			alive[r] = false
			deadMu.Lock()
			deadHandles = append(deadHandles, old)
			deadMu.Unlock()
		case !alive[r]:
			f.Revive(r)
			alive[r] = true
		case stalled[r]:
			f.Unstall(r)
			stalled[r] = false
		default:
			f.Stall(r)
			stalled[r] = true
		}
		rankMu[r].Unlock()
		time.Sleep(50 * time.Microsecond)
	}
	for r := 0; r < n; r++ {
		rankMu[r].Lock()
		if !alive[r] {
			f.Revive(r)
		}
		if stalled[r] {
			f.Unstall(r)
		}
		rankMu[r].Unlock()
	}

	sendersDone := make(chan struct{})
	go func() { senders.Wait(); close(sendersDone) }()
	select {
	case <-sendersDone:
	case <-time.After(30 * time.Second):
		t.Fatal("senders still blocked after every rank was revived and unstalled")
	}
	waitFor(t, "in-flight messages to drain", func() bool { return f.InFlight() == 0 })
	for _, h := range deadHandles {
		if env, ok := h.Recv(); ok {
			t.Fatalf("killed incarnation's handle yielded %d->%d index %d", env.From, env.To, env.SendIndex)
		}
	}
	f.Close()
	receivers.Wait()
	if received.Load() == 0 || received.Load() > sent.Load() {
		t.Fatalf("received %d of %d sent", received.Load(), sent.Load())
	}
	t.Logf("%d sent, %d received, %d kills", sent.Load(), received.Load(), len(deadHandles))
	waitFor(t, "goroutines back at baseline", func() bool { return runtime.NumGoroutine() <= base })
}
