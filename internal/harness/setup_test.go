package harness

import (
	"runtime"
	"testing"

	"windar/internal/transport"
)

// TestSetupIsLinearInRanks bounds what NewCluster costs before the first
// send at n=64: the fabric's n² links must start no goroutine and carry
// no per-link RNG state until they are used, so set-up heap grows with
// the rank count, not its square.
func TestSetupIsLinearInRanks(t *testing.T) {
	const n = 64
	// maxHeapPerRank is about twice the measured figure (~13 KiB); a
	// per-link math/rand source alone costs ~300 KiB per rank at n=64.
	const maxHeapPerRank = 32 << 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	goroutines := runtime.NumGoroutine()

	cfg := testConfig(n, TDI)
	cfg.Transport = transport.Mem // tcp adds one accept loop per rank
	c, err := NewCluster(cfg, ringFactory(10))
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	runtime.GC()
	runtime.ReadMemStats(&after)

	if extra := runtime.NumGoroutine() - goroutines; extra >= n {
		t.Errorf("NewCluster started %d goroutines before any send; links must start lazily", extra)
	}
	perRank := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	t.Logf("set-up heap: %d B per rank at n=%d", perRank, n)
	if perRank > maxHeapPerRank {
		t.Errorf("set-up heap %d B per rank at n=%d, want <= %d", perRank, n, maxHeapPerRank)
	}
}
