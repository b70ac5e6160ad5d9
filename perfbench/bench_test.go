package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

var workloadNames = []string{"flood", "lu-tcp-durable", "mw-recover"}

// lastLine returns the final non-empty line of out.
func lastLine(out string) string {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	return lines[len(lines)-1]
}

// TestTinyPassEmitsEveryMetric runs every workload at tiny size in both
// modes and checks the result line: correct, and every metric
// BENCHMARK.json names present with a finite value and its unit.
func TestTinyPassEmitsEveryMetric(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w, "--seed", "3", "--seconds", "0.2", "--trace", trace,
					"--tiny", "--root", "..", "--build", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				var res result
				if err := json.Unmarshal([]byte(lastLine(stdout.String())), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("got %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				cpuSum := 0.0
				for _, s := range want {
					m, ok := res.Metrics[s.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", s.Name)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", s.Name, m.Value)
					case m.Unit != s.Unit:
						t.Errorf("metric %s unit %q, want %q", s.Name, m.Unit, s.Unit)
					}
					if strings.HasPrefix(s.Name, "cpu.") {
						cpuSum += m.Value
					}
				}
				if trace == "0" {
					for _, name := range []string{"setup_s", "msgs_per_s", "recovery_ms_p50", "recovery_ms_p90", "setup_heap_mb"} {
						if res.Metrics[name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, res.Metrics[name].Value)
						}
					}
				} else if math.Abs(cpuSum-1) > 1e-9 {
					t.Errorf("cpu shares sum to %v, want 1", cpuSum)
				}
			})
		}
	}
}

// TestTamperedReferenceFails checks that the correctness check bites: a
// reference digest off by one bit must fail every repetition's check of
// that rank, and the run must report itself incorrect.
func TestTamperedReferenceFails(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := lookupWorkload("flood", true)
	if err != nil {
		t.Fatal(err)
	}
	b := newBench(options{workload: "flood", seed: 3, seconds: 0.1, root: "..", build: t.TempDir(), tiny: true}, wl)
	b.tamper = func(ref *reference) { ref.digests[0][0] ^= 1 }
	res, out, err := b.execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("tampered reference passed: %+v", res)
	}
	if !strings.Contains(strings.Join(out.errs, "\n"), "rank 0: final state digest") {
		t.Errorf("errors do not name the digest mismatch: %v", out.errs)
	}
}

// TestClassify pins the CPU attribution rules.
func TestClassify(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "windar/internal/harness.(*rankRuntime).Send"}, "harness"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "sched"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.Syscall", "syscall.write", "windar/internal/transport/tcp.(*link).flush"}, "syscall"},
		{[]string{"reflect.Value.Field", "encoding/gob.(*Encoder).encodeStruct", "windar/internal/ckpt.Encode"}, "ckpt"},
		{[]string{"windar/internal/wire.AppendVecDelta", "windar/internal/core.(*TDI).AppendPiggybackForSend"}, "wire"},
		{[]string{"windar/internal/npb.(*luApp).lowerSweep"}, "app"},
		{[]string{"time.now", "main.timedEnv.Send"}, "other"},
		{[]string{"runtime.memmove"}, "other"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestKillPlanRotates checks that kills visit every rank, never the same
// rank twice in a row, at a fixed offset past a checkpoint.
func TestKillPlanRotates(t *testing.T) {
	k := &killSpec{every: 10, offset: 5, cycles: 40}
	wl, _ := lookupWorkload("mw-recover", false)
	plan := k.plan(8, newBench(options{seed: 9}, wl).rngFor(1))
	seen := map[int]bool{}
	for i, e := range plan {
		seen[e.victim] = true
		if e.step%k.every != k.offset {
			t.Errorf("kill %d at step %d, not %d past a checkpoint", i, e.step, k.offset)
		}
		if i > 0 && plan[i-1].victim == e.victim {
			t.Errorf("kills %d and %d both hit rank %d", i-1, i, e.victim)
		}
	}
	if len(seen) != 8 {
		t.Errorf("victims cover %d of 8 ranks", len(seen))
	}
}
