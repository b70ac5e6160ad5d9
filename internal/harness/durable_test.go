package harness

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"windar/internal/proto"
	"windar/internal/stable"
	"windar/internal/trace"
)

func diskBackend(t *testing.T, dir string) *stable.Disk {
	t.Helper()
	d, err := stable.OpenDisk(stable.DiskOptions{Dir: dir, FsyncInterval: time.Millisecond})
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	return d
}

// waitDurableCheckpoints blocks until every rank has a durable checkpoint
// at or past step, then returns. Fails the test after 30s.
func waitDurableCheckpoints(t *testing.T, c *Cluster, step int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		all := true
		for rank := 0; rank < c.cfg.N; rank++ {
			cp, ok, err := c.ckpts.LoadDurable(rank)
			if err != nil {
				t.Fatalf("LoadDurable(%d): %v", rank, err)
			}
			if !ok || cp.Step < step {
				all = false
				break
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for durable checkpoints")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStartFromStableResumesAfterAbruptStop is the in-process half of the
// durability story: a cluster over a disk backend is torn down mid-run
// (Close kills every rank, exactly the state a SIGKILL leaves on disk
// minus un-fsynced lazy appends), and a second cluster over the same
// directory resumes with StartFromStable. The resumed run must converge
// to the fault-free final state and pass full trace validation against
// the seeded checkpoint baselines. The process-level SIGKILL version of
// this test lives in internal/chaos (restart runner).
func TestStartFromStableResumesAfterAbruptStop(t *testing.T) {
	for _, p := range []ProtocolKind{TDI, TAG, TEL} {
		t.Run(string(p), func(t *testing.T) {
			const n, steps = 4, 120
			want := run(t, testConfig(n, p), ringFactory(steps), nil)

			dir := t.TempDir()
			cfg := testConfig(n, p)
			cfg.Stable = diskBackend(t, dir)
			cfg.DurableLogs = true
			c, err := NewCluster(cfg, ringFactory(steps))
			if err != nil {
				t.Fatalf("NewCluster: %v", err)
			}
			if err := c.Start(); err != nil {
				t.Fatalf("Start: %v", err)
			}
			waitDurableCheckpoints(t, c, 10)
			c.Close() // abrupt: ranks die mid-run, disk state stays

			rec := &trace.Recorder{}
			cfg2 := testConfig(n, p)
			cfg2.Stable = diskBackend(t, dir)
			cfg2.DurableLogs = true
			cfg2.Observer = rec
			c2, err := NewCluster(cfg2, ringFactory(steps))
			if err != nil {
				t.Fatalf("NewCluster(resume): %v", err)
			}
			defer c2.Close()
			if err := c2.StartFromStable(); err != nil {
				t.Fatalf("StartFromStable: %v", err)
			}
			done := make(chan struct{})
			go func() { c2.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatal("resumed cluster did not complete")
			}
			for rank := 0; rank < n; rank++ {
				if got := c2.AppSnapshot(rank); !bytes.Equal(got, want[rank]) {
					t.Errorf("rank %d: resumed state %x, fault-free %x", rank, got, want[rank])
				}
			}
			for _, pr := range rec.Validate(true) {
				t.Errorf("trace: %v", pr)
			}
			for _, pr := range rec.CheckInvariants() {
				t.Errorf("invariant: %v", pr)
			}
		})
	}
}

// TestStartFromStableFreshDir: with nothing durable yet, StartFromStable
// must behave exactly like Start.
func TestStartFromStableFreshDir(t *testing.T) {
	const n, steps = 3, 20
	want := run(t, testConfig(n, TDI), ringFactory(steps), nil)

	cfg := testConfig(n, TDI)
	cfg.Stable = diskBackend(t, t.TempDir())
	c, err := NewCluster(cfg, ringFactory(steps))
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	if err := c.StartFromStable(); err != nil {
		t.Fatalf("StartFromStable: %v", err)
	}
	done := make(chan struct{})
	go func() { c.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("cluster did not complete")
	}
	for rank := 0; rank < n; rank++ {
		if got := c.AppSnapshot(rank); !bytes.Equal(got, want[rank]) {
			t.Errorf("rank %d: state %x, want %x", rank, got, want[rank])
		}
	}
}

// TestDurableLogsBoundStore is the compaction soak: with DurableLogs on,
// the stable keyspace (mirrored sender-log items, TEL determinants,
// checkpoint blobs) must stay bounded by the checkpoint interval — log
// release must delete slog/ and tel/ keys — rather than grow with run
// length.
func TestDurableLogsBoundStore(t *testing.T) {
	for _, p := range []ProtocolKind{TDI, TEL} {
		t.Run(string(p), func(t *testing.T) {
			lens := make(map[int]int)
			for _, steps := range []int{40, 160} {
				cfg := testConfig(4, p)
				cfg.DurableLogs = true
				c, err := NewCluster(cfg, ringFactory(steps))
				if err != nil {
					t.Fatalf("NewCluster: %v", err)
				}
				if err := c.Start(); err != nil {
					t.Fatalf("Start: %v", err)
				}
				done := make(chan struct{})
				go func() { c.Wait(); close(done) }()
				select {
				case <-done:
				case <-time.After(60 * time.Second):
					t.Fatal("cluster did not complete")
				}
				lens[steps] = c.Store().Len()
				c.Close()
			}
			// The 4x-longer run may retain a little more (advances in
			// flight at completion differ), but anything near-linear in
			// steps means release is broken.
			if lens[160] > 2*lens[40]+16 {
				t.Errorf("stable keyspace grew with run length: %d keys at 40 steps, %d at 160", lens[40], lens[160])
			}
			if lens[160] == 0 {
				t.Error("expected a durable mirror to retain some keys")
			}
		})
	}
}

// TestSlogCodecRoundTrip pins the mirrored log-item encoding.
func TestSlogCodecRoundTrip(t *testing.T) {
	for i := 0; i < 50; i++ {
		it := testLogItem(i)
		got, err := decodeSlogItem(proto.AppendLogItem(nil, &it))
		if err != nil {
			t.Fatalf("item %d: decode: %v", i, err)
		}
		if got.Dest != it.Dest || got.SendIndex != it.SendIndex || got.Tag != it.Tag ||
			got.Span != it.Span || !bytes.Equal(got.Piggyback, it.Piggyback) ||
			!bytes.Equal(got.Payload, it.Payload) {
			t.Fatalf("item %d: round-trip mismatch: %+v != %+v", i, got, it)
		}
	}
	// Truncations at every byte offset must error, never panic.
	it := testLogItem(7)
	full := proto.AppendLogItem(nil, &it)
	for cut := 0; cut < len(full); cut++ {
		if _, err := decodeSlogItem(full[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
}

func testLogItem(i int) (it proto.LogItem) {
	it.Dest = i % 5
	it.SendIndex = int64(i) * 1000003
	it.Tag = int32(i % 3)
	it.Span.Trace = uint64(i) * 7
	it.Span.Span = uint64(i) * 13
	if i%2 == 0 {
		it.Piggyback = bytes.Repeat([]byte{byte(i)}, i%17)
	}
	if i%3 != 0 {
		it.Payload = []byte(fmt.Sprintf("payload-%d", i))
	}
	return it
}

// TestCloseMidReleaseDiskDurableLogs is the regression for Close closing
// the stable backend while a receiver was still applying a
// CHECKPOINT_ADVANCE: its mirrored-log Delete then hit the closed disk
// backend and panicked the process. Long checkpoint intervals and the
// store's write latency stretch every release over many sleeping
// Deletes, and Close lands as soon as the first release has begun.
func TestCloseMidReleaseDiskDurableLogs(t *testing.T) {
	const n = 6
	for i := 0; i < 10; i++ {
		cfg := testConfig(n, TDI)
		cfg.CheckpointEvery = 40
		cfg.StableWriteLatency = 200 * time.Microsecond
		cfg.Stable = diskBackend(t, t.TempDir())
		cfg.DurableLogs = true
		c, err := NewCluster(cfg, sumFactory(1<<20))
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		if err := c.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for c.Metrics().Total().LogItemsReleased == 0 {
			if time.Now().After(deadline) {
				t.Fatal("no log release within 30s")
			}
			time.Sleep(100 * time.Microsecond)
		}
		c.Close()
	}
}
