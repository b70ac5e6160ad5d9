package main

import (
	"fmt"
	"math/rand"
	"time"

	"windar/internal/app"
	"windar/internal/fabric"
	"windar/internal/harness"
	"windar/internal/npb"
	"windar/internal/transport"
	"windar/internal/workload"
)

// workloadDef is one named closed-loop cell: every rank's next send waits on
// its own receives, so a slower system simply receives less load.
type workloadDef struct {
	name string
	n    int
	// steps is the application length of one measured repetition.
	steps int
	// app builds the rank factory for a run of the given length.
	app func(steps int) (app.Factory, error)
	// config is the cluster configuration for a seed. The stable backend,
	// observer, obs registry and interceptors are filled in per
	// repetition.
	config func(seed int64) harness.Config
	// disk selects the disk WAL backend with the given group-commit
	// window; false keeps the simulated in-memory backend.
	disk  bool
	fsync time.Duration
	// kills, when set, injects kill/recover cycles into the measured
	// repetitions themselves.
	kills *killSpec
	// recovery, when set, measures recovery time in a separate phase of
	// kill/recover repetitions, so the measured repetitions stay
	// failure-free.
	recovery *killSpec
}

// killSpec places progress-triggered kills: cycle i kills its victim as
// the victim enters step every*(i+1)+offset, offset steps past a
// checkpoint, so every kill loses the same amount of work.
type killSpec struct {
	every  int // checkpoint interval, in steps, of a kill repetition
	offset int // steps past the last checkpoint at which the kill fires
	cycles int // kill/recover cycles per repetition
}

// steps is the application length of a kill repetition: one checkpoint
// interval of slack after the last kill.
func (k *killSpec) steps() int { return k.every * (k.cycles + 2) }

// plan returns the repetition's kills: victims rotate through a
// seed-shuffled order of all ranks (rank 0 included), never the same rank
// twice in a row.
func (k *killSpec) plan(n int, rng *rand.Rand) []killEntry {
	out := make([]killEntry, 0, k.cycles)
	var order []int
	prev := -1
	for i := 0; i < k.cycles; i++ {
		if len(order) == 0 {
			order = rng.Perm(n)
			if n > 1 && order[0] == prev {
				order[0], order[1] = order[1], order[0]
			}
		}
		v := order[0]
		order = order[1:]
		out = append(out, killEntry{victim: v, step: k.every*(i+1) + k.offset})
		prev = v
	}
	return out
}

// floodWindow is the flood app's per-step in-flight window, the
// throughput cell's setting.
const floodWindow = 16

// workloads returns the benchmark's cells; tiny shrinks every length so
// the benchmark's own tests finish in seconds.
func workloads(tiny bool) map[string]*workloadDef {
	size := func(full, small int) int {
		if tiny {
			return small
		}
		return full
	}
	list := []*workloadDef{
		{
			// The delivery path alone: zero modelled latency, no
			// checkpoints, so harness delivery, TDI piggybacks, wire and
			// the sender log carry the whole cost.
			name:  "flood",
			n:     16,
			steps: size(4000, 40),
			app: func(steps int) (app.Factory, error) {
				return workload.NewFlood(steps, floodWindow), nil
			},
			config: func(seed int64) harness.Config {
				return harness.Config{
					N:                  16,
					Protocol:           harness.TDI,
					DisableTrackTiming: true,
					Fabric:             fabric.Config{Seed: seed},
				}
			},
			recovery: &killSpec{every: 10, offset: 5, cycles: size(50, 3)},
		},
		{
			// The durable embedder: real loopback TCP, incremental
			// checkpoints to the disk WAL with sender logs mirrored into
			// it, and real stencil compute.
			name:  "lu-tcp-durable",
			n:     4,
			steps: size(80, 8),
			app: func(steps int) (app.Factory, error) {
				return npb.LU(npb.Params{N: 16, Iterations: steps, NormEvery: 4})
			},
			config: func(seed int64) harness.Config {
				return harness.Config{
					N:               4,
					Protocol:        harness.TDI,
					Transport:       transport.TCP,
					CheckpointEvery: 4,
					DurableLogs:     true,
					Fabric:          fabric.Config{Seed: seed},
				}
			},
			disk:     true,
			fsync:    2 * time.Millisecond,
			recovery: &killSpec{every: 4, offset: 2, cycles: size(20, 3)},
		},
		{
			// Recovery under AnySource: 64 ranks on the timer-scheduled
			// mem fabric, rank 0 gathering with AnySource, kills rotating
			// through every rank including the master.
			name:  "mw-recover",
			n:     64,
			steps: 0, // set from kills below
			app: func(steps int) (app.Factory, error) {
				return workload.NewMasterWorker(steps), nil
			},
			config: func(seed int64) harness.Config {
				return harness.Config{
					N:               64,
					Protocol:        harness.TDI,
					CheckpointEvery: 10,
					Fabric: fabric.Config{
						BaseLatency:    20 * time.Microsecond,
						JitterFraction: 0.25,
						Seed:           seed,
					},
				}
			},
			kills: &killSpec{every: 10, offset: 5, cycles: size(40, 3)},
		},
	}
	out := make(map[string]*workloadDef, len(list))
	for _, w := range list {
		if w.kills != nil {
			w.steps = w.kills.steps()
		}
		out[w.name] = w
	}
	return out
}

// lookupWorkload returns the named workload.
func lookupWorkload(name string, tiny bool) (*workloadDef, error) {
	w, ok := workloads(tiny)[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want flood, lu-tcp-durable or mw-recover)", name)
	}
	return w, nil
}
