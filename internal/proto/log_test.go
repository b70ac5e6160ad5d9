package proto

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func item(dest int, idx int64, payload string) LogItem {
	return LogItem{Dest: dest, SendIndex: idx, Payload: []byte(payload)}
}

func TestAppendAndItemsFor(t *testing.T) {
	l := NewLog()
	l.Append(item(1, 1, "a"))
	l.Append(item(1, 2, "b"))
	l.Append(item(2, 1, "c"))

	got := l.ItemsFor(1, 0)
	if len(got) != 2 || got[0].SendIndex != 1 || got[1].SendIndex != 2 {
		t.Fatalf("ItemsFor(1,0) = %v", got)
	}
	if got := l.ItemsFor(1, 1); len(got) != 1 || got[0].SendIndex != 2 {
		t.Fatalf("ItemsFor(1,1) = %v", got)
	}
	if got := l.ItemsFor(1, 5); len(got) != 0 {
		t.Fatalf("ItemsFor(1,5) = %v", got)
	}
	if got := l.ItemsFor(9, 0); len(got) != 0 {
		t.Fatalf("ItemsFor(unknown dest) = %v", got)
	}
}

func TestAppendOutOfOrderPanics(t *testing.T) {
	l := NewLog()
	l.Append(item(1, 2, "a"))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-order append")
		}
	}()
	l.Append(item(1, 2, "dup"))
}

func TestRelease(t *testing.T) {
	l := NewLog()
	for i := int64(1); i <= 5; i++ {
		l.Append(item(1, i, "x"))
	}
	l.Append(item(2, 1, "y"))

	if n := l.Release(1, 3); n != 3 {
		t.Fatalf("Release removed %d, want 3", n)
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	got := l.ItemsFor(1, 0)
	if len(got) != 2 || got[0].SendIndex != 4 {
		t.Fatalf("post-release items = %v", got)
	}
	// Releasing again is a no-op.
	if n := l.Release(1, 3); n != 0 {
		t.Fatalf("second Release removed %d", n)
	}
	// Releasing everything empties the destination bucket.
	if n := l.Release(1, 99); n != 2 {
		t.Fatalf("full Release removed %d", n)
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (dest 2 untouched)", l.Len())
	}
}

func TestBytesAccounting(t *testing.T) {
	l := NewLog()
	l.Append(LogItem{Dest: 1, SendIndex: 1, Piggyback: make([]byte, 4), Payload: make([]byte, 10)})
	l.Append(LogItem{Dest: 1, SendIndex: 2, Payload: make([]byte, 6)})
	if l.Bytes() != 20 {
		t.Fatalf("Bytes = %d, want 20", l.Bytes())
	}
	l.Release(1, 1)
	if l.Bytes() != 6 {
		t.Fatalf("Bytes after release = %d, want 6", l.Bytes())
	}
}

func TestAllAndRestoreRoundTrip(t *testing.T) {
	l := NewLog()
	l.Append(item(2, 1, "c"))
	l.Append(item(2, 2, "d"))
	l.Append(item(0, 1, "a"))

	all := l.All()
	if len(all) != 3 {
		t.Fatalf("All = %v", all)
	}
	if all[0].Dest != 0 || all[1].Dest != 2 || all[1].SendIndex != 1 {
		t.Fatalf("All ordering wrong: %v", all)
	}

	restored := NewLog()
	restored.RestoreAll(all)
	if !reflect.DeepEqual(restored.All(), all) {
		t.Fatalf("restore mismatch: %v vs %v", restored.All(), all)
	}
	if restored.Bytes() != l.Bytes() || restored.Len() != l.Len() {
		t.Fatalf("restore accounting mismatch")
	}
}

func TestRestoreAllSortsUnorderedInput(t *testing.T) {
	l := NewLog()
	l.RestoreAll([]LogItem{item(1, 3, "c"), item(1, 1, "a"), item(1, 2, "b")})
	got := l.ItemsFor(1, 0)
	for i, it := range got {
		if it.SendIndex != int64(i+1) {
			t.Fatalf("unsorted after restore: %v", got)
		}
	}
}

// Property: for any sequence of appends and releases, ItemsFor(dest, k)
// returns exactly the retained items with index > k, in order, and Len and
// Bytes stay consistent with a naive model.
func TestLogModelProperty(t *testing.T) {
	type op struct {
		release bool
		dest    int
		idx     int64
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			n := r.Intn(60)
			ops := make([]op, n)
			next := map[int]int64{}
			for i := range ops {
				dest := r.Intn(3)
				if r.Intn(4) == 0 {
					ops[i] = op{release: true, dest: dest, idx: int64(r.Intn(20))}
				} else {
					next[dest]++
					ops[i] = op{dest: dest, idx: next[dest]}
				}
			}
			vals[0] = reflect.ValueOf(ops)
		},
	}
	f := func(ops []op) bool {
		l := NewLog()
		model := map[int][]int64{} // retained indices per dest
		for _, o := range ops {
			if o.release {
				kept := model[o.dest][:0]
				for _, idx := range model[o.dest] {
					if idx > o.idx {
						kept = append(kept, idx)
					}
				}
				model[o.dest] = kept
				l.Release(o.dest, o.idx)
			} else {
				model[o.dest] = append(model[o.dest], o.idx)
				l.Append(item(o.dest, o.idx, "p"))
			}
		}
		total := 0
		for dest, idxs := range model {
			total += len(idxs)
			got := l.ItemsFor(dest, 0)
			if len(got) != len(idxs) {
				return false
			}
			for i := range idxs {
				if got[i].SendIndex != idxs[i] {
					return false
				}
			}
		}
		return l.Len() == total && l.Bytes() == int64(total)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestVerdictString(t *testing.T) {
	if Deliver.String() != "Deliver" || Hold.String() != "Hold" {
		t.Fatal("verdict strings wrong")
	}
	if Verdict(9).String() != "Verdict(?)" {
		t.Fatal("unknown verdict string wrong")
	}
}

// checkStorage asserts the log's storage invariants: every released or
// unused slot is zeroed (no payload or piggyback stays reachable through
// it), every chunk in a list holds a live item and no dropped chunk stays
// reachable from the list, and the spare pool holds only zeroed chunks,
// at most one per destination.
func checkStorage(t *testing.T, l *Log) {
	t.Helper()
	zero := func(c []LogItem, what string) {
		t.Helper()
		for i := range c {
			if !reflect.ValueOf(c[i]).IsZero() {
				t.Fatalf("%s slot %d not zeroed: %+v", what, i, c[i])
			}
		}
	}
	for dest, d := range l.perDest {
		for i, c := range d.chunks {
			zero(c[len(c):cap(c)], fmt.Sprintf("dest %d chunk %d unused", dest, i))
			if len(d.live(i)) == 0 {
				t.Fatalf("dest %d chunk %d has no live item", dest, i)
			}
		}
		for _, c := range d.chunks[len(d.chunks):cap(d.chunks)] {
			if c != nil {
				t.Fatalf("dest %d: chunk list keeps a dropped chunk reachable", dest)
			}
		}
		if len(d.chunks) > 0 {
			zero(d.chunks[0][:d.head], fmt.Sprintf("dest %d released", dest))
		} else if d.head != 0 || d.count != 0 {
			t.Fatalf("dest %d: empty list with head %d count %d", dest, d.head, d.count)
		}
	}
	if len(l.spare) > len(l.perDest) {
		t.Fatalf("spare pool holds %d chunks for %d destinations", len(l.spare), len(l.perDest))
	}
	for i, c := range l.spare {
		if len(c) != 0 || cap(c) != logChunkItems {
			t.Fatalf("spare %d: len %d cap %d", i, len(c), cap(c))
		}
		zero(c[:cap(c)], fmt.Sprintf("spare %d", i))
	}
}

// TestLogRecyclingModel drives long random Append/Release/ItemsFor/All/
// RestoreAll sequences, crossing many chunk boundaries, against a naive
// slice model. Besides the contents it checks that released storage is
// zeroed and bounded, and that copies handed out earlier (a staged
// checkpoint's All, a resend set from ItemsFor) survive later chunk
// reuse unchanged.
func TestLogRecyclingModel(t *testing.T) {
	const dests = 3
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := NewLog()
		model := map[int][]LogItem{}
		var next [dests]int64
		type held struct{ got, want []LogItem }
		var copies []held
		keep := func(got []LogItem) {
			want := append([]LogItem(nil), got...)
			for i := range want {
				want[i].Payload = append([]byte(nil), want[i].Payload...)
			}
			copies = append(copies, held{got, want})
		}
		modelAll := func() []LogItem {
			var out []LogItem
			for d := 0; d < dests; d++ {
				out = append(out, model[d]...)
			}
			return out
		}
		for step := 0; step < 6000; step++ {
			d := rng.Intn(dests)
			switch r := rng.Intn(100); {
			case r < 70:
				// Mostly one append; now and then a burst that runs a
				// destination several chunks ahead of its releases, so
				// one release frees more chunks than the pool keeps.
				burst := 1
				if rng.Intn(200) == 0 {
					burst = 700
				}
				for ; burst > 0; burst-- {
					next[d]++
					it := LogItem{Dest: d, SendIndex: next[d], Tag: int32(step),
						Payload: []byte(fmt.Sprintf("%d/%d", d, next[d]))}
					if next[d]%3 == 0 {
						it.Piggyback = []byte{byte(step)}
					}
					l.Append(it)
					model[d] = append(model[d], it)
				}
			case r < 88:
				upto := next[d] - int64(rng.Intn(12))
				if rng.Intn(6) == 0 {
					upto = next[d] // full release
				}
				want := 0
				for len(model[d]) > 0 && model[d][0].SendIndex <= upto {
					model[d] = model[d][1:]
					want++
				}
				if got := l.Release(d, upto); got != want {
					t.Fatalf("seed %d step %d: Release(%d, %d) = %d, want %d", seed, step, d, upto, got, want)
				}
			case r < 94:
				after := next[d] - int64(rng.Intn(300))
				got := l.ItemsFor(d, after)
				var want []LogItem
				for _, it := range model[d] {
					if it.SendIndex > after {
						want = append(want, it)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: ItemsFor(%d, %d) = %d items, want %d", seed, step, d, after, len(got), len(want))
				}
				keep(got)
			case r < 99:
				got := l.All()
				if want := modelAll(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: All = %d items, want %d", seed, step, len(got), len(want))
				}
				keep(got)
			default:
				// A recovery: rebuild from a copy of the current contents.
				l.RestoreAll(l.All())
			}
			total, bytes := 0, int64(0)
			for _, its := range model {
				total += len(its)
				for _, it := range its {
					bytes += int64(len(it.Payload) + len(it.Piggyback))
				}
			}
			if l.Len() != total || l.Bytes() != bytes {
				t.Fatalf("seed %d step %d: Len/Bytes = %d/%d, want %d/%d", seed, step, l.Len(), l.Bytes(), total, bytes)
			}
			if step%97 == 0 {
				checkStorage(t, l)
			}
		}
		checkStorage(t, l)
		for i, h := range copies {
			if !reflect.DeepEqual(h.got, h.want) {
				t.Fatalf("seed %d: copy %d changed after later chunk reuse", seed, i)
			}
		}
	}
}
