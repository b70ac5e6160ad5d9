// Command perfbench is windar's benchmark: three closed-loop workloads,
// their end-to-end metrics, and a traced per-layer ledger. Run it through
// run.sh from the checkout root:
//
//	bash perfbench/run.sh --workload flood --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints every end-to-end metric BENCHMARK.json names; --trace 1
// runs traced repetitions interleaved with untraced ones under a CPU
// profile and prints every per-layer metric. Every repetition's final
// state is checked against a plain failure-free reference run. The last
// line of standard output is the JSON result; the process exits non-zero
// when any check failed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricSpec is one metric BENCHMARK.json declares.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: flood, lu-tcp-durable or mw-recover")
	fs.Int64Var(&o.seed, "seed", 1, "seed for fabric jitter and kill victims")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced per-layer ledger")
	fs.StringVar(&o.root, "root", ".", "checkout root holding BENCHMARK.json")
	fs.StringVar(&o.build, "build", ".bench_build", "directory for run output and scratch files")
	fs.BoolVar(&o.tiny, "tiny", false, "shrink every workload (self-test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	spec, err := loadSpec(o.root)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	wl, err := lookupWorkload(o.workload, o.tiny)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	b := newBench(o, wl)
	res, detail, err := b.execute(spec)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	writeReport(stdout, stderr, o, res, detail)
	if !res.Correct {
		return 1
	}
	return 0
}

// outcome is everything one benchmark process measured.
type outcome struct {
	// main are the untraced measured repetitions; traced the traced ones
	// (trace mode only); recovery the kill repetitions of workloads whose
	// measured repetitions are failure-free.
	main, traced, recovery []*repResult
	warmup                 *repResult
	attempted, failed      int
	errs, warns            []string
	probes                 probeSet
	cpu                    map[string]float64
	cpuSamples             int64
}

func (o *outcome) add(r *repResult) {
	o.attempted += r.attempted
	o.failed += r.failed
	o.errs = append(o.errs, r.errs...)
	o.warns = append(o.warns, r.warns...)
}

// minRecoveryCycles is the kill/recover cycles a run measures at least:
// the quieter half of them leaves at least 100, so the p90 has ten
// samples beyond it.
const minRecoveryCycles = 200

// recoveryShare is the part of the measured time a workload with
// separate recovery repetitions spends in them; more cycles steady the
// recovery percentiles.
const recoveryShare = 0.5

// execute runs the warm-up repetition, then the measured ones, and
// computes the metrics.
func (b *bench) execute(spec *benchSpec) (*result, *outcome, error) {
	defer b.cleanup()
	wl := b.wl
	out := &outcome{}
	mainOpts := repOpts{steps: wl.steps, kills: wl.kills}
	minReps, minCycles := 3, minRecoveryCycles
	if b.opts.tiny {
		minReps, minCycles = 1, 1
	}
	budget := time.Duration(b.opts.seconds * float64(time.Second))

	out.warmup = b.runRep(mainOpts)
	out.add(out.warmup)
	start := time.Now()
	var metrics map[string]float64
	if !b.opts.trace {
		// Recovery repetitions are interleaved with the measured ones
		// rather than run as one block, so a burst of interference on the
		// machine cannot cover all of either kind.
		cycles := 0
		var recTime, mainTime time.Duration
		for out.failed == 0 && b.remaining() > 0 {
			needCycles := (wl.kills != nil || wl.recovery != nil) && cycles < minCycles
			needMain := len(out.main) < minReps
			over := time.Since(start) >= budget
			if over && !needCycles && !needMain {
				break
			}
			useRec := wl.recovery != nil && float64(recTime) < recoveryShare*float64(recTime+mainTime)
			if over {
				useRec = wl.recovery != nil && needCycles && !needMain
			}
			repStart := time.Now()
			if useRec {
				r := b.runRep(repOpts{steps: wl.recovery.steps(), kills: wl.recovery})
				out.add(r)
				out.recovery = append(out.recovery, r)
				cycles += len(r.recoveries)
				recTime += time.Since(repStart)
			} else {
				r := b.runRep(mainOpts)
				out.add(r)
				out.main = append(out.main, r)
				cycles += len(r.recoveries)
				mainTime += time.Since(repStart)
			}
		}
		metrics = endToEnd(out.main, out.recovery)
	} else {
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, nil, fmt.Errorf("start cpu profile: %w", err)
		}
		tracedOpts := mainOpts
		tracedOpts.traced = true
		for out.failed == 0 && b.remaining() > 0 && (len(out.traced) < minReps || time.Since(start) < budget) {
			r := b.runRep(tracedOpts)
			out.add(r)
			out.traced = append(out.traced, r)
			r = b.runRep(mainOpts)
			out.add(r)
			out.main = append(out.main, r)
		}
		pprof.StopCPUProfile()
		var err error
		out.cpu, out.cpuSamples, err = cpuShares(prof.Bytes())
		if err != nil {
			return nil, nil, err
		}
		if err := b.runProbes(out); err != nil {
			out.attempted++
			out.failed++
			out.errs = append(out.errs, "probes: "+err.Error())
		}
		metrics = perLayer(wl.n, out.traced, out.main, out.probes, out.cpu)
	}

	want := spec.EndToEnd
	if b.opts.trace {
		want = spec.PerLayer
	}
	res := &result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, s := range want {
		v, ok := metrics[s.Name]
		if !ok {
			return nil, nil, fmt.Errorf("BENCHMARK.json names metric %q, which the benchmark does not compute", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.attempted++
			out.failed++
			out.errs = append(out.errs, fmt.Sprintf("metric %s is not finite", s.Name))
			v = 0
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	for name := range metrics {
		if _, ok := res.Metrics[name]; !ok {
			return nil, nil, fmt.Errorf("metric %q is computed but BENCHMARK.json does not name it", name)
		}
	}
	res.Attempted, res.Failed = out.attempted, out.failed
	res.Correct = out.failed == 0 && out.attempted > 0
	return res, out, nil
}

// runProbes times the layer probes on the last traced repetition's
// captured inputs.
func (b *bench) runProbes(out *outcome) error {
	last := out.traced[len(out.traced)-1]
	var payload int64
	if last.totals.MsgsSent > 0 {
		payload = last.totals.PayloadBytes / last.totals.MsgsSent
	}
	last.tr.mu.Lock()
	pigs := last.tr.pigs
	last.tr.mu.Unlock()
	p := &out.probes
	p.pigEnc, p.pigDec, p.frameRead = wireProbes(pigItems(pigs, b.wl.n), int(payload))
	if last.lastCkpt != nil {
		var err error
		p.ckptEnc, p.ckptDec, err = ckptProbes(last.lastCkpt)
		if err != nil {
			return err
		}
	}
	if sizes := last.tr.stable.sizes; len(sizes) > 0 {
		var err error
		p.diskPutSync, err = diskProbe(b.newDir(), sizes)
		if err != nil {
			return err
		}
	}
	return nil
}

// provenance describes where and how a run was made.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Started    string  `json:"started"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// rawRep is one repetition's raw values in the detail record.
type rawRep struct {
	Kind         string    `json:"kind"`
	SetupS       float64   `json:"setup_s"`
	SetupHeapMB  float64   `json:"setup_heap_mb"`
	ElapsedS     float64   `json:"elapsed_s"`
	Msgs         int64     `json:"msgs"`
	MsgsPerS     float64   `json:"msgs_per_s"`
	RecoveryMS   []float64 `json:"recovery_ms,omitempty"`
	Interference float64   `json:"interference"`
	Attempted    int       `json:"attempted"`
	Failed       int       `json:"failed"`
}

func rawOf(kind string, r *repResult) rawRep {
	rr := rawRep{
		Kind: kind, SetupS: r.setup.Seconds(), SetupHeapMB: float64(r.setupHeap) / mib,
		ElapsedS: r.elapsed.Seconds(), Msgs: r.msgs,
		MsgsPerS:  ratio(float64(r.msgs), r.elapsed.Seconds()),
		Attempted: r.attempted, Failed: r.failed, Interference: r.interference,
	}
	for _, d := range r.recoveries {
		rr.RecoveryMS = append(rr.RecoveryMS, float64(d)/float64(time.Millisecond))
	}
	return rr
}

// writeReport prints the provenance, the raw repetitions and a metric
// table, writes the same detail to the build directory, and ends with the
// JSON result line.
func writeReport(stdout, stderr io.Writer, o options, res *result, out *outcome) {
	prov := provenance{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: cpuModel(),
		Started: time.Now().UTC().Format(time.RFC3339),
	}
	reps := []rawRep{rawOf("warmup", out.warmup)}
	for _, r := range out.recovery {
		reps = append(reps, rawOf("recovery", r))
	}
	for _, r := range out.traced {
		reps = append(reps, rawOf("traced", r))
	}
	for _, r := range out.main {
		reps = append(reps, rawOf("measured", r))
	}
	detail := struct {
		Provenance provenance `json:"provenance"`
		Reps       []rawRep   `json:"reps"`
		CPUSamples int64      `json:"cpu_samples,omitempty"`
		FailRatio  float64    `json:"fail_ratio"`
		Errors     []string   `json:"errors,omitempty"`
		Warnings   []string   `json:"warnings,omitempty"`
		Result     *result    `json:"result"`
	}{prov, reps, out.cpuSamples, ratio(float64(res.Failed), float64(res.Attempted)), out.errs, out.warns, res}
	if b, err := json.MarshalIndent(detail, "", "  "); err == nil {
		dir := filepath.Join(o.build, "results")
		mode := "e2e"
		if o.trace {
			mode = "trace"
		}
		name := fmt.Sprintf("%s-seed%d-%s-%d.json", o.workload, o.seed, mode, time.Now().UnixNano())
		if err := os.MkdirAll(dir, 0o777); err == nil {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o666); err != nil {
				fmt.Fprintln(stderr, "perfbench: write detail:", err)
			}
		}
	}

	fmt.Fprintf(stdout, "# windar perfbench  workload=%s seed=%d trace=%v nproc=%d gomaxprocs=%d %s  cpu=%q\n",
		prov.Workload, prov.Seed, prov.Trace, prov.NumCPU, prov.GOMAXPROCS, prov.GoVersion, prov.CPUModel)
	for _, r := range reps {
		fmt.Fprintf(stdout, "# rep %-9s setup=%.4fs heap=%.2fMiB elapsed=%.4fs msgs/s=%.0f recoveries=%d interference=%.3f failed=%d/%d\n",
			r.Kind, r.SetupS, r.SetupHeapMB, r.ElapsedS, r.MsgsPerS, len(r.RecoveryMS), r.Interference, r.Failed, r.Attempted)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "# %-40s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(stdout, "# fail_ratio %.6g (%d of %d checks failed)\n", detail.FailRatio, res.Failed, res.Attempted)
	for _, e := range out.errs {
		fmt.Fprintln(stdout, "# FAIL", e)
	}
	for _, w := range out.warns {
		fmt.Fprintln(stdout, "# WARN", w)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
}
