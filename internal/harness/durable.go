package harness

import (
	"fmt"
	"strconv"

	"windar/internal/ckpt"
	"windar/internal/proto"
	"windar/internal/wire"
)

// Durable sender logs (Config.DurableLogs): every log append is mirrored
// into the stable store under slog/<rank>/<dest>/<index>, so a process
// that dies with SIGKILL can rebuild its retained sender log from the
// keyspace. The keys ride the WAL's lazy append path (PutLazy — no fsync
// wait on the send path); the next checkpoint Save is the group-commit
// barrier that makes them durable, which is exactly the coverage the
// checkpoint's LogExternal restore relies on: items with
// SendIndex <= cp.LastSendIndex[dest] were appended before the snapshot
// and are therefore durable once the Save that published cp completed.
// Items appended after the checkpoint may be lost with the process; a
// full-cluster restart regenerates them by replaying from the
// checkpointed step. Released items are deleted when CHECKPOINT_ADVANCE
// arrives, which bounds the keyspace exactly like the in-memory log.

// slogKey is the stable-store key for one mirrored log item. The
// fixed-width hex index keeps the backend's lexicographic Keys order
// equal to send-index order.
func slogKey(rank, dest int, idx int64) string {
	return fmt.Sprintf("slog/%03d/%03d/%016x", rank, dest, uint64(idx))
}

// slogPrefix scopes one (rank, dest) channel's mirrored items.
func slogPrefix(rank, dest int) string {
	return fmt.Sprintf("slog/%03d/%03d/", rank, dest)
}

// decodeSlogItem parses one mirrored item: exactly one
// proto.AppendLogItem encoding. The item aliases b, which the store
// handed out as a private copy.
func decodeSlogItem(b []byte) (proto.LogItem, error) {
	c := wire.NewCursor(b)
	it := proto.ReadLogItem(&c)
	if !c.OK() || c.Remaining() != 0 {
		return proto.LogItem{}, fmt.Errorf("harness: corrupt slog item (%d bytes)", len(b))
	}
	return it, nil
}

// slogAppend mirrors one just-logged item into the stable keyspace.
// Called under the rank lock on the send path; PutLazy never sleeps, so
// the lock is safe to hold across it, and it copies the value, so the
// encode buffer is reused. A store that fails under a killed incarnation
// is being closed under it; the dead rank's mirror no longer matters.
func (r *rankRuntime) slogAppend(it *proto.LogItem) {
	r.slogBuf = proto.AppendLogItem(r.slogBuf[:0], it)
	if err := r.c.store.PutLazy(slogKey(r.id, it.Dest, it.SendIndex), r.slogBuf); err != nil && !r.isKilled() {
		panic(fmt.Sprintf("harness: rank %d slog append: %v", r.id, err))
	}
}

// slogRelease deletes rank's mirrored items for dest up to and including
// upTo — the stable-store half of the CHECKPOINT_ADVANCE log release.
// Runs outside the rank lock: Delete charges the store's write latency.
func (c *Cluster) slogRelease(rank, dest int, upTo int64) {
	prefix := slogPrefix(rank, dest)
	for _, k := range c.store.Keys(prefix) {
		idx, err := strconv.ParseUint(k[len(prefix):], 16, 64)
		if err != nil || int64(idx) > upTo {
			break
		}
		if err := c.store.Delete(k); err != nil {
			panic(fmt.Sprintf("harness: rank %d slog release: %v", rank, err))
		}
	}
}

// restoreLog rebuilds r's sender log from checkpoint cp: the inline
// items, or — for an incremental (LogExternal) checkpoint — the slog
// keyspace, filtered to the checkpoint's send frontier. Keys beyond the
// frontier belong to sends after the snapshot: a same-process recovery
// regenerates them deterministically, and a process restart may have
// lost them anyway (they were lazy), so they are ignored either way.
func (r *rankRuntime) restoreLog(cp *ckpt.Checkpoint) error {
	if !cp.LogExternal {
		r.log.RestoreAll(cp.Log)
		return nil
	}
	var items []proto.LogItem
	for dest := 0; dest < r.n; dest++ {
		if dest == r.id {
			continue
		}
		prefix := slogPrefix(r.id, dest)
		for _, k := range r.c.store.Keys(prefix) {
			idx, err := strconv.ParseUint(k[len(prefix):], 16, 64)
			if err != nil {
				return fmt.Errorf("harness: rank %d: malformed slog key %q", r.id, k)
			}
			if int64(idx) > cp.LastSendIndex[dest] {
				break
			}
			data, ok := r.c.store.Get(k)
			if !ok {
				continue // released concurrently; the peer no longer needs it
			}
			it, err := decodeSlogItem(data)
			if err != nil {
				return fmt.Errorf("harness: rank %d: slog key %q: %w", r.id, k, err)
			}
			items = append(items, it)
		}
	}
	r.log.RestoreAll(items)
	return nil
}
