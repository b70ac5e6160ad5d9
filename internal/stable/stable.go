// Package stable is the durable medium that survives process failures.
// Checkpoints (all protocols), the TEL event logger, and — in durable
// mode — sender logs write here.
//
// The package splits policy from mechanism. A Backend is the mechanism:
// an atomic key/value medium with an explicit durability contract. Two
// are provided: the simulated in-memory backend ("sim", the default,
// whose contents survive rank failures because only volatile rank state
// is dropped on a simulated crash) and a real disk backend ("disk",
// per-shard parallel write-ahead log files with group commit, which
// survives SIGKILL of the whole process). The Store is the policy
// wrapper every caller goes through: it charges the configured
// read/write latencies so that protocols which lean on stable storage
// (TEL) are charged realistically relative to protocols that do not
// (TDI, TAG), and it counts every operation for the figures.
package stable

import (
	"sort"
	"sync"
	"time"

	"windar/internal/clock"
)

// Backend is a pluggable durable key/value medium.
//
// Contract:
//
//   - Every mutation is atomic: after a crash at any instant, a later
//     Open observes for each key either the previous value or the new
//     one, never a torn mix. Backends achieve this with whole-record
//     checksums (disk) or plain memory writes (sim).
//   - Put and Rename are durable when they return: the mutation has
//     been flushed and fsynced (possibly as part of a group commit that
//     batches neighbouring mutations into one fsync).
//   - PutLazy and Delete are durable by the completion of the next
//     Sync, Put, or Rename that follows them; until then a crash may
//     lose (but never tear) them. They exist so hot paths can append
//     without waiting a full fsync round-trip.
//   - Sync is the group-commit barrier: when it returns, every mutation
//     that returned before Sync was called is durable.
//   - Get and Keys observe all completed mutations, durable or not.
//   - Put and PutLazy copy data: the caller may reuse its buffer as
//     soon as the call returns.
//
// All methods are safe for concurrent use.
type Backend interface {
	// Kind identifies the backend ("sim", "disk") for wiring and stats.
	Kind() string
	// Put atomically and durably stores data under key.
	Put(key string, data []byte) error
	// PutLazy atomically stores data under key; durable at next Sync.
	PutLazy(key string, data []byte) error
	// Get returns the value stored under key. The returned slice is a
	// copy the caller may retain.
	Get(key string) ([]byte, bool)
	// Delete removes key if present; durable at next Sync.
	Delete(key string) error
	// Rename atomically and durably moves the value at oldKey to
	// newKey, overwriting newKey and removing oldKey. Renaming a
	// missing key is an error.
	Rename(oldKey, newKey string) error
	// Keys returns the stored keys with the given prefix, sorted.
	Keys(prefix string) []string
	// Len returns the number of stored keys.
	Len() int
	// Sync flushes: on return every prior mutation is durable.
	Sync() error
	// Close flushes and releases resources. Idempotent.
	Close() error
}

// Stats reports a Store's cumulative usage counters. Writes counts
// Put+PutLazy+Rename, Deletes counts Delete (charged like a write since
// a real log must durably record the tombstone), Syncs counts explicit
// Sync barriers.
type Stats struct {
	Writes       int64
	Reads        int64
	Deletes      int64
	Syncs        int64
	BytesWritten int64
}

// Store is the latency-charging, counting front of a Backend. It is
// safe for concurrent use by every rank in the cluster.
type Store struct {
	clk          clock.Clock
	writeLatency time.Duration
	readLatency  time.Duration
	backend      Backend

	mu    sync.Mutex
	stats Stats
}

// Options configures a Store.
type Options struct {
	// Clock used to charge latency. Defaults to the real clock.
	Clock clock.Clock
	// WriteLatency is paid by every Put, Delete, and Rename before it
	// becomes durable. PutLazy pays nothing: it models an asynchronous
	// buffered log append whose cost is charged at the Sync barrier.
	WriteLatency time.Duration
	// ReadLatency is paid by every Get.
	ReadLatency time.Duration
	// Backend is the durable medium. Defaults to a fresh sim backend.
	Backend Backend
}

// NewStore returns a store with the given options.
func NewStore(opts Options) *Store {
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	if opts.Backend == nil {
		opts.Backend = NewSim()
	}
	return &Store{
		clk:          opts.Clock,
		writeLatency: opts.WriteLatency,
		readLatency:  opts.ReadLatency,
		backend:      opts.Backend,
	}
}

// Backend returns the underlying medium.
func (s *Store) Backend() Backend { return s.backend }

// Durable reports whether the backend survives process death (anything
// but the simulated in-memory backend).
func (s *Store) Durable() bool { return s.backend.Kind() != "sim" }

func (s *Store) chargeWrite() {
	if s.writeLatency > 0 {
		s.clk.Sleep(s.writeLatency)
	}
}

// Put durably stores data under key, overwriting any previous value.
// The stored bytes are copied, so the caller may reuse its buffer.
func (s *Store) Put(key string, data []byte) error {
	s.chargeWrite()
	err := s.backend.Put(key, data)
	s.mu.Lock()
	s.stats.Writes++
	s.stats.BytesWritten += int64(len(data))
	s.mu.Unlock()
	return err
}

// PutLazy stores data under key without waiting for durability (or
// charging write latency): the write is durable at the next Sync, Put,
// or Rename. Hot paths use it for log appends that a checkpoint's Sync
// barrier later makes durable in one batch. The stored bytes are
// copied, as for Put.
func (s *Store) PutLazy(key string, data []byte) error {
	err := s.backend.PutLazy(key, data)
	s.mu.Lock()
	s.stats.Writes++
	s.stats.BytesWritten += int64(len(data))
	s.mu.Unlock()
	return err
}

// Get returns a copy of the value stored under key.
func (s *Store) Get(key string) ([]byte, bool) {
	if s.readLatency > 0 {
		s.clk.Sleep(s.readLatency)
	}
	s.mu.Lock()
	s.stats.Reads++
	s.mu.Unlock()
	return s.backend.Get(key)
}

// Delete removes key if present. A real log must durably record the
// tombstone, so Delete pays the write latency and is counted like a
// write.
func (s *Store) Delete(key string) error {
	s.chargeWrite()
	err := s.backend.Delete(key)
	s.mu.Lock()
	s.stats.Deletes++
	s.mu.Unlock()
	return err
}

// Rename atomically and durably moves oldKey to newKey.
func (s *Store) Rename(oldKey, newKey string) error {
	s.chargeWrite()
	err := s.backend.Rename(oldKey, newKey)
	s.mu.Lock()
	s.stats.Writes++
	s.mu.Unlock()
	return err
}

// Keys returns the stored keys with the given prefix, sorted.
func (s *Store) Keys(prefix string) []string { return s.backend.Keys(prefix) }

// Sync is the group-commit barrier: on return, every previously
// completed mutation (including lazy puts and deletes) is durable.
func (s *Store) Sync() error {
	s.chargeWrite()
	err := s.backend.Sync()
	s.mu.Lock()
	s.stats.Syncs++
	s.mu.Unlock()
	return err
}

// Close flushes and closes the backend. Idempotent.
func (s *Store) Close() error { return s.backend.Close() }

// Stats reports cumulative usage counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Len returns the number of stored objects.
func (s *Store) Len() int { return s.backend.Len() }

// sortedKeys is a small shared helper for backends' Keys.
func sortedKeys(out []string) []string {
	sort.Strings(out)
	return out
}
