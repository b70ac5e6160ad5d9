package stable

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// conformanceBackends returns a fresh instance of every Backend under a
// name, so each contract test runs against all of them.
func conformanceBackends(t *testing.T) map[string]Backend {
	t.Helper()
	disk, err := OpenDisk(DiskOptions{Dir: t.TempDir(), Shards: 4})
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	t.Cleanup(func() { disk.Close() })
	return map[string]Backend{"sim": NewSim(), "disk": disk}
}

func TestConformanceRoundTrip(t *testing.T) {
	for name, b := range conformanceBackends(t) {
		t.Run(name, func(t *testing.T) {
			if err := b.Put("k", []byte("value")); err != nil {
				t.Fatalf("Put: %v", err)
			}
			got, ok := b.Get("k")
			if !ok || string(got) != "value" {
				t.Fatalf("Get = %q, %v", got, ok)
			}
			if _, ok := b.Get("missing"); ok {
				t.Fatal("Get of missing key reported present")
			}
			if b.Len() != 1 {
				t.Fatalf("Len = %d", b.Len())
			}
		})
	}
}

func TestConformanceCopies(t *testing.T) {
	for name, b := range conformanceBackends(t) {
		t.Run(name, func(t *testing.T) {
			for op, put := range map[string]func(string, []byte) error{"Put": b.Put, "PutLazy": b.PutLazy} {
				buf := []byte("abc")
				if err := put(op, buf); err != nil {
					t.Fatalf("%s: %v", op, err)
				}
				buf[0] = 'X'
				got, _ := b.Get(op)
				if string(got) != "abc" {
					t.Fatalf("%s aliased caller buffer: %q", op, got)
				}
				got[0] = 'Y'
				again, _ := b.Get(op)
				if string(again) != "abc" {
					t.Fatalf("Get returned aliased internal buffer: %q", again)
				}
			}
		})
	}
}

func TestConformanceDelete(t *testing.T) {
	for name, b := range conformanceBackends(t) {
		t.Run(name, func(t *testing.T) {
			b.Put("k", []byte("v"))
			if err := b.Delete("k"); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if _, ok := b.Get("k"); ok {
				t.Fatal("key survived Delete")
			}
			if err := b.Delete("k"); err != nil {
				t.Fatalf("Delete of absent key: %v", err)
			}
		})
	}
}

func TestConformanceRename(t *testing.T) {
	for name, b := range conformanceBackends(t) {
		t.Run(name, func(t *testing.T) {
			b.Put("old", []byte("v"))
			b.Put("new", []byte("stale"))
			if err := b.Rename("old", "new"); err != nil {
				t.Fatalf("Rename: %v", err)
			}
			if _, ok := b.Get("old"); ok {
				t.Fatal("old key survived Rename")
			}
			got, ok := b.Get("new")
			if !ok || string(got) != "v" {
				t.Fatalf("Get(new) = %q, %v", got, ok)
			}
			if err := b.Rename("ghost", "x"); err == nil {
				t.Fatal("Rename of missing key succeeded")
			}
		})
	}
}

func TestConformanceKeysOrdering(t *testing.T) {
	// Keys must come back sorted regardless of insertion order or, for
	// the disk backend, which shard file each key landed in.
	for name, b := range conformanceBackends(t) {
		t.Run(name, func(t *testing.T) {
			for _, k := range []string{"ckpt/00000002", "slog/003/001/aa", "ckpt/00000001", "slog/001/002/bb", "tel/002/cc"} {
				if err := b.Put(k, []byte(k)); err != nil {
					t.Fatalf("Put(%s): %v", k, err)
				}
			}
			got := b.Keys("")
			want := []string{"ckpt/00000001", "ckpt/00000002", "slog/001/002/bb", "slog/003/001/aa", "tel/002/cc"}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Keys = %v, want %v", got, want)
			}
			if got := b.Keys("slog/"); !reflect.DeepEqual(got, []string{"slog/001/002/bb", "slog/003/001/aa"}) {
				t.Fatalf("Keys(slog/) = %v", got)
			}
		})
	}
}

func TestConformanceLazyThenSync(t *testing.T) {
	for name, b := range conformanceBackends(t) {
		t.Run(name, func(t *testing.T) {
			if err := b.PutLazy("k", []byte("lazy")); err != nil {
				t.Fatalf("PutLazy: %v", err)
			}
			// Lazy writes are immediately visible, durably or not.
			if got, ok := b.Get("k"); !ok || string(got) != "lazy" {
				t.Fatalf("Get after PutLazy = %q, %v", got, ok)
			}
			if err := b.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
		})
	}
}

func TestConformanceConcurrentPutGet(t *testing.T) {
	// Hammer each backend from 16 goroutines; run under -race this
	// doubles as the data-race check the contract promises.
	for name, b := range conformanceBackends(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for i := 0; i < 16; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for j := 0; j < 50; j++ {
						key := fmt.Sprintf("slog/%03d/%03d/%04d", i, j%4, j)
						if err := b.PutLazy(key, []byte{byte(i), byte(j)}); err != nil {
							t.Errorf("PutLazy %s: %v", key, err)
							return
						}
						if v, ok := b.Get(key); !ok || v[0] != byte(i) {
							t.Errorf("lost write %s", key)
							return
						}
						if j%8 == 0 {
							if err := b.Delete(key); err != nil {
								t.Errorf("Delete %s: %v", key, err)
								return
							}
						}
					}
				}(i)
			}
			wg.Wait()
			if err := b.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			want := 16 * (50 - 50/8 - 1)
			if n := b.Len(); n != want {
				t.Fatalf("Len = %d, want %d", n, want)
			}
		})
	}
}
