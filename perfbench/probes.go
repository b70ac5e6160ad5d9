package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"windar/internal/ckpt"
	"windar/internal/stable"
	"windar/internal/vclock"
	"windar/internal/wire"
)

// Layer probes time one layer's operation on inputs captured from the
// traced run, so a win inside a layer shows even where the end-to-end
// numbers dilute it.

// probeStat is one probe's cost per operation.
type probeStat struct{ ns, allocs float64 }

// probeBatches is the number of timed batches a probe reports the median
// of.
const probeBatches = 5

// measure calibrates a batch size that takes about target, then returns
// the median ns/op and allocs/op over probeBatches batches. maxIters caps
// the batch for slow operations.
func measure(target time.Duration, maxIters int, op func()) probeStat {
	op()
	iters := 1
	for iters < maxIters {
		start := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		if time.Since(start) >= target {
			break
		}
		iters *= 2
	}
	if iters > maxIters {
		iters = maxIters
	}
	ns := make([]float64, probeBatches)
	allocs := make([]float64, probeBatches)
	var a, b runtime.MemStats
	for k := range ns {
		runtime.ReadMemStats(&a)
		start := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		el := time.Since(start)
		runtime.ReadMemStats(&b)
		ns[k] = float64(el) / float64(iters)
		allocs[k] = float64(b.Mallocs-a.Mallocs) / float64(iters)
	}
	return probeStat{ns: median(ns), allocs: median(allocs)}
}

// probeTarget is the calibrated length of one probe batch.
const probeTarget = 10 * time.Millisecond

// pigItem is one captured piggyback with the channel state around it.
type pigItem struct {
	pig       []byte
	base, cur vclock.Vec
	delta     bool
}

// pigItems decodes a channel's captured piggybacks in order, each against
// its predecessor. Piggybacks that do not decode against the running base
// (a gap after a recovery) are skipped. Without any capture it falls
// back to one full vector of width n.
func pigItems(pigs [][]byte, n int) []pigItem {
	var items []pigItem
	base := vclock.New(n)
	for _, p := range pigs {
		cur, _, delta, err := wire.ReadVecAny(p, base)
		if err != nil || len(cur) != n {
			continue
		}
		items = append(items, pigItem{pig: p, base: base, cur: cur, delta: delta})
		base = cur
	}
	if len(items) == 0 {
		cur := vclock.New(n)
		for i := range cur {
			cur[i] = int64(i + 1)
		}
		items = append(items, pigItem{pig: wire.AppendVec(nil, cur), base: vclock.New(n), cur: cur})
	}
	return items
}

// wireProbes times piggyback encode and decode over the captured channel
// sequence (delta or full, as the run sent them) and framed envelope
// reads carrying those piggybacks and payloads of the run's mean size.
func wireProbes(items []pigItem, payload int) (enc, dec, frame probeStat) {
	var buf []byte
	i := 0
	enc = measure(probeTarget, 1<<22, func() {
		it := &items[i%len(items)]
		if it.delta {
			buf = wire.AppendVecDelta(buf[:0], it.base, it.cur)
		} else {
			buf = wire.AppendVec(buf[:0], it.cur)
		}
		i++
	})
	var dst vclock.Vec
	i = 0
	dec = measure(probeTarget, 1<<22, func() {
		it := &items[i%len(items)]
		v, _, _, err := wire.ReadVecAnyInto(dst, it.pig, it.base)
		if err == nil {
			dst = v
		}
		i++
	})
	var stream []byte
	body := make([]byte, payload)
	for k, it := range items {
		stream = wire.AppendFrame(stream, &wire.Envelope{
			Kind: wire.KindApp, From: 1, To: 0, Tag: 6,
			SendIndex: int64(k + 1), Piggyback: it.pig, Payload: body,
		})
	}
	fr := wire.NewFrameReader(&loopReader{b: stream})
	frame = measure(probeTarget, 1<<22, func() {
		if _, err := fr.Read(); err != nil {
			panic(fmt.Sprintf("frame probe: %v", err))
		}
	})
	return enc, dec, frame
}

// loopReader replays b forever; b holds whole frames, so the frame
// stream it yields is seamless.
type loopReader struct {
	b   []byte
	off int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off = (r.off + n) % len(r.b)
	return n, nil
}

// ckptProbes times the checkpoint codec on a real checkpoint of the run.
func ckptProbes(cp *ckpt.Checkpoint) (enc, dec probeStat, err error) {
	blob, err := ckpt.Encode(cp)
	if err != nil {
		return enc, dec, err
	}
	var opErr error
	enc = measure(probeTarget, 1<<16, func() {
		if _, err := ckpt.Encode(cp); err != nil {
			opErr = err
		}
	})
	dec = measure(probeTarget, 1<<16, func() {
		if _, err := ckpt.Decode(blob); err != nil {
			opErr = err
		}
	})
	return enc, dec, opErr
}

// diskProbeKeys is the key space the disk probe cycles through, so the
// WAL sees overwrites as the run's checkpoint slots do.
const diskProbeKeys = 64

// diskProbe times a durable Put followed by a Sync on a fresh disk
// backend, cycling through the value sizes the run wrote. The backend
// commits at once (no group-commit window), so the probe measures the
// write and fsync themselves.
func diskProbe(dir string, sizes []int) (probeStat, error) {
	d, err := stable.OpenDisk(stable.DiskOptions{Dir: dir})
	if err != nil {
		return probeStat{}, err
	}
	defer os.RemoveAll(dir)
	maxSize := 0
	for _, s := range sizes {
		maxSize = max(maxSize, s)
	}
	data := make([]byte, maxSize)
	for i := range data {
		data[i] = byte(i)
	}
	keys := make([]string, diskProbeKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("probe/%02d", i)
	}
	var opErr error
	i := 0
	st := measure(probeTarget, 256, func() {
		if err := d.Put(keys[i%len(keys)], data[:sizes[i%len(sizes)]]); err != nil {
			opErr = err
		}
		if err := d.Sync(); err != nil {
			opErr = err
		}
		i++
	})
	if err := d.Close(); err != nil && opErr == nil {
		opErr = err
	}
	return st, opErr
}
