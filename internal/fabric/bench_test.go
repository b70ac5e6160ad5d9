package fabric

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"windar/internal/wire"
)

// BenchmarkPingPong measures one round trip through the fabric (encode,
// link service, decode, inbox hand-off) without artificial latency.
func BenchmarkPingPong(b *testing.B) {
	f := New(Config{N: 2})
	defer f.Close()
	payload := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := &wire.Envelope{Kind: wire.KindApp, From: 0, To: 1, SendIndex: int64(i + 1), Payload: payload}
		if err := f.Send(env, SendOpts{}); err != nil {
			b.Fatal(err)
		}
		if _, ok := f.Recv(1); !ok {
			b.Fatal("recv failed")
		}
	}
}

// BenchmarkThroughputOneLink streams messages down one link as fast as
// the delivery scheduler can carry them.
func BenchmarkThroughputOneLink(b *testing.B) {
	for _, size := range []int{64, 4096, 65536} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			f := New(Config{N: 2, LinkBufferBytes: 1 << 26})
			defer f.Close()
			payload := make([]byte, size)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < b.N; i++ {
					if _, ok := f.Recv(1); !ok {
						return
					}
				}
			}()
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env := &wire.Envelope{Kind: wire.KindApp, From: 0, To: 1, SendIndex: int64(i + 1), Payload: payload}
				if err := f.Send(env, SendOpts{}); err != nil {
					b.Fatal(err)
				}
			}
			<-done
		})
	}
}

// BenchmarkRendezvous measures the synchronous send path (Fig. 4a): the
// sender pays the full acceptance round trip per message.
func BenchmarkRendezvous(b *testing.B) {
	f := New(Config{N: 2})
	defer f.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, ok := f.Recv(1); !ok {
				return
			}
		}
	}()
	payload := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := &wire.Envelope{Kind: wire.KindApp, From: 0, To: 1, SendIndex: int64(i + 1), Payload: payload}
		if err := f.Send(env, SendOpts{Rendezvous: true}); err != nil {
			b.Fatal(err)
		}
	}
	f.Close()
	<-done
}

// BenchmarkKillRevive measures failure-injection turnaround.
func BenchmarkKillRevive(b *testing.B) {
	f := New(Config{N: 4})
	defer f.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Kill(2)
		f.Revive(2)
	}
}

// BenchmarkFanOutFanIn measures one master/worker round on a 64-rank
// fabric at 20µs: rank 0 sends to each of the 63 others, each echoes
// back, and rank 0 collects all 63 replies. The modelled round trip is
// about 40µs; everything above it is the fabric's own overhead. Sends go
// the way the harness transmits (TrySend, Send when refused).
func BenchmarkFanOutFanIn(b *testing.B) {
	const n = 64
	f := New(Config{N: n, BaseLatency: 20 * time.Microsecond})
	defer f.Close()
	send := func(env *wire.Envelope) {
		if !f.TrySend(env) {
			if err := f.Send(env, SendOpts{}); err != nil {
				b.Error(err)
			}
		}
	}
	var workers sync.WaitGroup
	for w := 1; w < n; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			in := f.Inbox(w)
			reply := &wire.Envelope{Kind: wire.KindApp, From: w, To: 0, Payload: make([]byte, 64)}
			for {
				env, ok := in.Recv()
				if !ok {
					return
				}
				reply.SendIndex = env.SendIndex
				wire.Recycle(env)
				send(reply)
			}
		}(w)
	}
	master := f.Inbox(0)
	envs := make([]wire.Envelope, n)
	for w := 1; w < n; w++ {
		envs[w] = wire.Envelope{Kind: wire.KindApp, From: 0, To: w, Payload: make([]byte, 64)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := 1; w < n; w++ {
			envs[w].SendIndex = int64(i + 1)
			send(&envs[w])
		}
		for w := 1; w < n; w++ {
			env, ok := master.Recv()
			if !ok {
				b.Fatal("master inbox closed")
			}
			wire.Recycle(env)
		}
	}
	b.StopTimer()
	f.Close()
	workers.Wait()
}
