package main

import (
	"crypto/sha256"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"windar/internal/ckpt"
	"windar/internal/harness"
	"windar/internal/metrics"
	"windar/internal/stable"
	"windar/layer"
)

// options are the benchmark's command-line inputs.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// root is the checkout root holding BENCHMARK.json; build is the
	// directory for everything the run writes.
	root, build string
	// tiny shrinks every workload (the benchmark's own tests).
	tiny bool
}

// bench runs one workload's repetitions.
type bench struct {
	opts    options
	wl      *workloadDef
	refs    map[int]*reference
	scratch string
	dirSeq  int
	repSeq  int64
	// deadline bounds the whole run; repetitions past it are not started
	// and waits give up at it.
	deadline time.Time
	// goroutines is the process's goroutine count before any cluster ran.
	goroutines int
	// tamper, when set, edits every reference before use (tests).
	tamper func(*reference)
}

// reference is the failure-free result of a plain run: mem fabric, sim
// backend, no checkpoints. Every repetition's final state must match it
// byte for byte.
type reference struct {
	digests   [][32]byte
	delivered []int64
	// msgs is the run's fixed count of delivered application messages.
	msgs int64
}

// repResult is one repetition's measurements and checks.
type repResult struct {
	setup     time.Duration
	setupHeap int64
	elapsed   time.Duration
	msgs      int64
	totals    metrics.Snapshot

	recoveries []time.Duration

	attempted, failed int
	errs              []string
	// warns are defects seen outside the measured behaviour; they do not
	// fail the run.
	warns []string

	mallocs, allocBytes, gcs uint64
	// interference is the share of the machine's CPU time that went to
	// other guests or processes during set-up and run.
	interference float64

	// Traced repetitions only.
	tr          *tracer
	lastCkpt    *ckpt.Checkpoint
	commits     int64
	diskBytes   int64
	replayKeys  int
	replayTime  time.Duration
	logLivePeak int
}

func (r *repResult) failf(format string, args ...any) {
	r.failed++
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// repOpts selects what one repetition runs.
type repOpts struct {
	steps  int
	kills  *killSpec
	traced bool
}

func newBench(o options, wl *workloadDef) *bench {
	return &bench{
		opts:       o,
		wl:         wl,
		refs:       make(map[int]*reference),
		scratch:    filepath.Join(o.build, "tmp", fmt.Sprintf("perfbench-%d", os.Getpid())),
		deadline:   time.Now().Add(runBudget),
		goroutines: runtime.NumGoroutine(),
	}
}

// runBudget bounds one benchmark process, well inside the 180 s a run
// may take.
const runBudget = 150 * time.Second

// settleTimeout bounds the wait for a closed cluster's goroutines.
const settleTimeout = 2 * time.Second

// settle waits until no more than extra goroutines beyond the process's
// own are left: Cluster.Close stops its goroutines but does not wait, and
// a straggler would both compete for the CPU and keep its cluster's heap
// live into the next repetition's set-up measurement.
func (b *bench) settle(extra int) {
	end := time.Now().Add(settleTimeout)
	for runtime.NumGoroutine() > b.goroutines+extra && time.Now().Before(end) {
		time.Sleep(time.Millisecond)
	}
}

// remaining is the time left before the run's deadline.
func (b *bench) remaining() time.Duration { return time.Until(b.deadline) }

// rngFor returns the victim generator of the rep-th kill repetition: the
// seed alone decides every run's victims.
func (b *bench) rngFor(rep int64) *rand.Rand {
	return rand.New(rand.NewSource(b.opts.seed*1_000_003 + rep))
}

func (b *bench) newDir() string {
	b.dirSeq++
	return filepath.Join(b.scratch, fmt.Sprintf("rep-%d", b.dirSeq))
}

// cleanup removes every directory the run created.
func (b *bench) cleanup() { os.RemoveAll(b.scratch) }

// reference returns the failure-free reference for a run of steps,
// computing it once.
func (b *bench) reference(steps int) (*reference, error) {
	if ref, ok := b.refs[steps]; ok {
		return ref, nil
	}
	factory, err := b.wl.app(steps)
	if err != nil {
		return nil, err
	}
	n := b.wl.n
	c, err := harness.NewCluster(harness.Config{N: n, Protocol: harness.TDI}, factory)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := c.Start(); err != nil {
		return nil, err
	}
	done := make(chan struct{})
	go func() { c.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(b.remaining()):
		c.Close()
		<-done
		return nil, fmt.Errorf("reference run of %d steps did not finish", steps)
	}
	ref := &reference{digests: make([][32]byte, n), delivered: make([]int64, n)}
	for r := 0; r < n; r++ {
		ref.digests[r] = sha256.Sum256(c.AppSnapshot(r))
		ref.delivered[r] = c.Metrics().Rank(r).Snapshot().MsgsDelivered
		ref.msgs += ref.delivered[r]
	}
	if b.tamper != nil {
		b.tamper(ref)
	}
	b.refs[steps] = ref
	return ref, nil
}

// runRep builds a cluster, times its set-up, runs it to completion with
// the step-0 gate opened at the start of the timed region, serves the
// planned kills, and checks every rank against the reference. It never
// returns an error: anything that goes wrong counts as a failed check.
func (b *bench) runRep(o repOpts) *repResult {
	wl := b.wl
	res := &repResult{}
	res.attempted = wl.n
	ref, err := b.reference(o.steps)
	if err != nil {
		res.failed = wl.n
		res.errs = append(res.errs, "reference: "+err.Error())
		return res
	}
	res.msgs = ref.msgs
	factory, err := wl.app(o.steps)
	if err != nil {
		res.failed = wl.n
		res.errs = append(res.errs, err.Error())
		return res
	}

	var tr *tracer
	if o.traced {
		tr = newTracer(wl.n)
		res.tr = tr
	}
	st := &runState{gate: make(chan struct{}), trace: tr, obs: newRunObserver(wl.n, tr)}
	if o.kills != nil {
		b.repSeq++
		st.plan = newKillPlan(o.kills.plan(wl.n, b.rngFor(b.repSeq)))
		res.attempted += len(st.plan.entries)
	}
	cfg := wl.config(b.opts.seed)
	if o.kills != nil {
		cfg.CheckpointEvery = o.kills.every
	}
	cfg.Observer = st.obs
	if tr != nil {
		cfg.Obs = tr.reg
		cfg.Interceptors = []layer.Interceptor{tr}
	}

	b.settle(0)
	cpu0 := sampleCPU()
	var m0, m1, m2 runtime.MemStats
	fullGC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var disk *stable.Disk
	var backing stable.Backend
	dir := ""
	// backendGoroutines are the ones the backend owns (the WAL
	// committer); they outlive the cluster until the backend is closed.
	backendGoroutines := runtime.NumGoroutine()
	if wl.disk {
		dir = b.newDir()
		disk, err = stable.OpenDisk(stable.DiskOptions{Dir: dir, FsyncInterval: wl.fsync})
		if err != nil {
			res.failed = wl.n
			res.errs = append(res.errs, "open disk backend: "+err.Error())
			return res
		}
		backing = disk
	} else {
		backing = stable.NewSim()
	}
	backendGoroutines = runtime.NumGoroutine() - backendGoroutines
	deferred := &deferredClose{Backend: backing}
	cfg.Stable = deferred
	if tr != nil {
		tr.stable = &timedBackend{Backend: cfg.Stable}
		cfg.Stable = tr.stable
	}
	c, err := harness.NewCluster(cfg, wrapFactory(factory, st))
	if err != nil {
		backing.Close()
		res.failed = wl.n
		res.errs = append(res.errs, "build cluster: "+err.Error())
		return res
	}
	if err := c.Start(); err != nil {
		close(st.gate)
		c.Close()
		backing.Close()
		res.failed = wl.n
		res.errs = append(res.errs, "start cluster: "+err.Error())
		return res
	}
	res.setup = time.Since(start)
	fullGC()
	runtime.ReadMemStats(&m1)
	res.setupHeap = int64(m1.HeapAlloc) - int64(m0.HeapAlloc)

	waitDone := make(chan struct{})
	go func() { c.Wait(); close(waitDone) }()
	stopSampler := func() int { return 0 }
	if tr != nil {
		stopSampler = sampleLogLive(c)
	}
	t0 := time.Now()
	close(st.gate)
	if st.plan != nil {
		b.driveKills(c, st, res, waitDone)
	}
	finished := false
	select {
	case <-waitDone:
		finished = true
	case <-time.After(b.remaining()):
	}
	res.elapsed = time.Since(t0)
	res.interference = interference(cpu0, sampleCPU())
	runtime.ReadMemStats(&m2)
	res.logLivePeak = stopSampler()
	res.mallocs = m2.Mallocs - m1.Mallocs
	res.allocBytes = m2.TotalAlloc - m1.TotalAlloc
	res.gcs = uint64(m2.NumGC - m1.NumGC)

	if !finished {
		res.failed += wl.n
		res.errs = append(res.errs, fmt.Sprintf("cluster did not finish %d steps before the run deadline", o.steps))
	} else {
		for r := 0; r < wl.n; r++ {
			got := sha256.Sum256(c.AppSnapshot(r))
			delivered := st.obs.lastDeliver[r].Load()
			switch {
			case got != ref.digests[r]:
				res.failf("rank %d: final state digest %x differs from the reference %x", r, got[:8], ref.digests[r][:8])
			case delivered != ref.delivered[r]:
				res.failf("rank %d: delivered %d messages, the reference delivered %d", r, delivered, ref.delivered[r])
			}
		}
	}
	res.totals = c.Metrics().Total()
	if tr != nil {
		res.lastCkpt = loadCheckpoint(c, wl.n)
		if disk != nil {
			res.commits = disk.Commits()
		}
	}
	if st.plan != nil {
		st.plan.abort()
	}
	c.Close()
	<-waitDone
	b.settle(backendGoroutines)
	if err := backing.Close(); err != nil {
		res.failf("close stable backend: %v", err)
	}
	if n := deferred.late.Load(); n > 0 {
		res.warns = append(res.warns, fmt.Sprintf("the cluster mutated its stable backend %d times after Cluster.Close released it", n))
	}
	if dir != "" {
		if tr != nil {
			b.measureReplay(res, dir)
		}
		os.RemoveAll(dir)
	}
	return res
}

// driveKills serves the plan's kills in order: kill the victim waiting at
// its kill step, recover it, and time the recovery from the Recover call
// to the victim's recovery completion.
func (b *bench) driveKills(c *harness.Cluster, st *runState, res *repResult, waitDone <-chan struct{}) {
	p := st.plan
	for i, e := range p.entries {
		fail := func(format string, args ...any) {
			res.failf("kill cycle %d (rank %d at step %d): %s", i, e.victim, e.step, fmt.Sprintf(format, args...))
			res.failed += len(p.entries) - i - 1
			p.abort()
		}
		var req killRequest
		select {
		case req = <-p.requests:
		case <-waitDone:
			fail("the cluster finished before the victim reached the step")
			return
		case <-time.After(b.remaining()):
			fail("the victim never reached the step")
			return
		}
		if req.idx != i {
			close(req.ack)
			fail("plan entry %d fired out of order", req.idx)
			return
		}
		err := c.Kill(e.victim)
		close(req.ack)
		if err != nil {
			fail("kill: %v", err)
			return
		}
	drain:
		for {
			select {
			case <-st.obs.recovered:
			default:
				break drain
			}
		}
		start := time.Now()
		if err := c.Recover(e.victim); err != nil {
			fail("recover: %v", err)
			return
		}
		timeout := time.After(b.remaining())
	wait:
		for {
			select {
			case r := <-st.obs.recovered:
				if r == e.victim {
					break wait
				}
			case <-timeout:
				fail("recovery did not complete")
				return
			}
		}
		res.recoveries = append(res.recoveries, time.Since(start))
		p.advance()
	}
}

// loadCheckpoint returns the lowest rank's durable checkpoint, read back
// through a fresh checkpoint manager the way a restarted process would.
func loadCheckpoint(c *harness.Cluster, n int) *ckpt.Checkpoint {
	m := ckpt.NewManager(c.Store())
	for r := 0; r < n; r++ {
		if cp, ok, err := m.Load(r); err == nil && ok {
			return cp
		}
	}
	return nil
}

// logSamplePeriod spaces the sender-log population samples of a traced
// repetition.
const logSamplePeriod = 5 * time.Millisecond

// sampleLogLive samples the cluster's live sender-log population until
// the returned stop function is called; stop returns the peak.
func sampleLogLive(c *harness.Cluster) func() int {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	peak := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(logSamplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if n := c.LogItemsLive(); n > peak {
					peak = n
				}
			}
		}
	}()
	return func() int {
		close(stop)
		wg.Wait()
		return peak
	}
}

// measureReplay records the WAL directory a closed repetition left
// behind and times a cold OpenDisk of it.
func (b *bench) measureReplay(res *repResult, dir string) {
	size, err := dirBytes(dir)
	if err != nil {
		res.failf("size WAL directory: %v", err)
		return
	}
	res.diskBytes = size
	start := time.Now()
	d, err := stable.OpenDisk(stable.DiskOptions{Dir: dir, FsyncInterval: b.wl.fsync})
	if err != nil {
		res.failf("replay WAL directory: %v", err)
		return
	}
	res.replayTime = time.Since(start)
	res.replayKeys = d.Len()
	if err := d.Close(); err != nil {
		res.failf("close replayed WAL: %v", err)
	}
}

// dirBytes sums regular-file sizes under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// cpuSample is a point on the machine's CPU counters (/proc/stat, in
// clock ticks) and this process's own CPU time.
type cpuSample struct {
	steal, busy, total uint64
	self               time.Duration
}

// clockTick is the unit of /proc/stat (USER_HZ).
const clockTick = 10 * time.Millisecond

// sampleCPU reads the counters; the /proc/stat fields stay 0 where the
// file is unavailable.
func sampleCPU() cpuSample {
	var s cpuSample
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.self = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return s
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return s
	}
	// user nice system idle iowait irq softirq steal ...
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuSample{self: s.self}
		}
		s.total += v
		switch i {
		case 0, 1, 2, 5, 6:
			s.busy += v
		case 7:
			s.steal = v
		}
	}
	return s
}

// interference is the share of the machine's CPU time between a and b
// that went elsewhere than this process: stolen by the hypervisor or
// used by other processes. 0 when the counters are unavailable.
func interference(a, b cpuSample) float64 {
	total := float64(b.total - a.total)
	if total <= 0 {
		return 0
	}
	other := float64(b.steal-a.steal) + float64(b.busy-a.busy) - float64(b.self-a.self)/float64(clockTick)
	return max(0, other/total)
}

// fullGC collects twice: objects parked in sync.Pool victim caches (the
// wire envelope and buffer pools) survive one collection, and would make
// the live heap depend on what the previous repetition left pooled.
func fullGC() {
	runtime.GC()
	runtime.GC()
}
