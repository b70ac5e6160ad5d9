package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU attribution: the traced run is profiled with runtime/pprof, and
// every sample is charged to one module. The profile is decoded here with
// a minimal reader of the pprof protobuf (profile.proto), since the
// benchmark uses the standard library only.

// cpuModules are the attribution classes, in report order. gc, sched
// (scheduler and lock waits) and syscall are the runtime residuals; other
// is whatever no class claims (the benchmark's own wrappers, unclaimed
// standard-library leaves).
var cpuModules = []string{
	"harness", "core", "wire", "proto", "fabric", "transport", "ckpt",
	"stable", "obs", "app", "gc", "sched", "syscall", "other",
}

// pkgModules maps a function's package path prefix to its module. The
// first match wins, so longer prefixes come first where they overlap.
var pkgModules = []struct{ prefix, module string }{
	{"windar/internal/harness.", "harness"},
	{"windar/layer.", "harness"},
	{"windar/internal/core.", "core"},
	{"windar/internal/vclock.", "core"},
	{"windar/internal/tag.", "core"},
	{"windar/internal/tel.", "core"},
	{"windar/internal/agraph.", "core"},
	{"windar/internal/determinant.", "core"},
	{"windar/internal/wire.", "wire"},
	{"windar/internal/proto.", "proto"},
	{"windar/internal/fabric.", "fabric"},
	{"windar/internal/transport", "transport"},
	{"windar/internal/ckpt.", "ckpt"},
	{"encoding/gob.", "ckpt"},
	{"windar/internal/stable.", "stable"},
	{"windar/internal/obs.", "obs"},
	{"windar/internal/metrics.", "obs"},
	{"windar/internal/npb.", "app"},
	{"windar/internal/workload.", "app"},
	{"windar/internal/mpi.", "app"},
	{"windar/internal/app.", "app"},
	{"main.", "other"},
}

// gcFrames mark a sample as garbage-collector work wherever they appear
// in the stack.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	"runtime.gcWriteBarrier", "runtime.wbBufFlush", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.markroot", "runtime.scanobject",
	"runtime.sweepone", "runtime.GC",
}

// schedFrames mark scheduler and lock-wait work in the runtime frames
// above the first module frame.
var schedFrames = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m",
	"runtime.mcall", "runtime.goexit0", "runtime.stealWork",
	"runtime.runqgrab", "runtime.notesleep", "runtime.notewakeup",
	"runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.goready",
	"runtime.ready", "runtime.gopark", "runtime.lock2", "runtime.unlock2",
	"runtime.semacquire", "runtime.semrelease", "runtime.osyield",
	"runtime.procyield", "runtime.usleep", "runtime.futex",
	"runtime.selectgo", "runtime.chansend", "runtime.chanrecv",
	"sync.(*Mutex).lockSlow", "sync.(*Mutex).unlockSlow",
	"sync.(*Cond).Wait", "sync.runtime_", "runtime.netpoll",
}

// syscallFrames mark system-call work in the frames above the first
// module frame.
var syscallFrames = []string{
	"syscall.", "internal/runtime/syscall.", "internal/poll.",
	"runtime.entersyscall", "runtime.exitsyscall", "os.(*File)", "net.",
}

func hasAnyPrefix(f string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

func moduleOf(f string) string {
	for _, m := range pkgModules {
		if strings.HasPrefix(f, m.prefix) {
			return m.module
		}
	}
	return ""
}

// classify charges one stack (leaf first) to a module: GC anywhere in the
// stack wins; otherwise the runtime frames between the leaf and the first
// module frame decide scheduler/lock and syscall time; otherwise the
// first module frame from the leaf owns the sample, runtime helpers such
// as allocation and copying included.
func classify(stack []string) string {
	for _, f := range stack {
		if hasAnyPrefix(f, gcFrames) {
			return "gc"
		}
	}
	for _, f := range stack {
		if m := moduleOf(f); m != "" {
			return m
		}
		if hasAnyPrefix(f, schedFrames) {
			return "sched"
		}
		if hasAnyPrefix(f, syscallFrames) {
			return "syscall"
		}
	}
	return "other"
}

// cpuShares decodes a gzipped pprof CPU profile and returns each module's
// share of the samples, plus the sample count.
func cpuShares(profile []byte) (map[string]float64, int64, error) {
	p, err := decodeProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	counts := make(map[string]int64, len(cpuModules))
	var total int64
	for _, s := range p.samples {
		var stack []string
		for _, id := range s.locs {
			stack = append(stack, p.locs[id]...)
		}
		counts[classify(stack)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		shares[m] = ratio(float64(counts[m]), float64(total))
	}
	return shares, total, nil
}

// profile is the part of profile.proto the attribution needs.
type profile struct {
	samples []sample
	// locs maps a location id to its function names, innermost inlined
	// frame first.
	locs map[uint64][]string
}

type sample struct {
	locs  []uint64
	count int64
}

// profile.proto field numbers.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs      []string
		funcNames = map[uint64]int64{}
		locFuncs  = map[uint64][]uint64{}
		samples   []sample
	)
	err = walkFields(raw, func(field int, wt int, v uint64, b []byte) error {
		switch field {
		case fProfileStrings:
			strs = append(strs, string(b))
		case fProfileSample:
			var s sample
			var values []uint64
			if err := walkFields(b, func(f, wt int, v uint64, b []byte) error {
				switch f {
				case fSampleLocation:
					s.locs = appendVarints(s.locs, wt, v, b)
				case fSampleValue:
					values = appendVarints(values, wt, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
		case fProfileLocation:
			var id uint64
			var fns []uint64
			if err := walkFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case fLocationID:
					id = v
				case fLocationLine:
					return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case fProfileFunction:
			var id uint64
			var name int64
			if err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := &profile{samples: samples, locs: make(map[uint64][]string, len(locFuncs))}
	for id, fns := range locFuncs {
		names := make([]string, 0, len(fns))
		for _, fn := range fns {
			if idx := funcNames[fn]; idx >= 0 && int(idx) < len(strs) {
				names = append(names, strs[idx])
			}
		}
		p.locs[id] = names
	}
	return p, nil
}

var errProto = errors.New("malformed protobuf")

// walkFields calls fn for every field of a protobuf message: v holds a
// varint value, b a length-delimited payload.
func walkFields(buf []byte, fn func(field, wireType int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		field, wt := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errProto
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		default:
			return errProto
		}
		if err := fn(field, wt, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, packed (wire
// type 2) or not.
func appendVarints(dst []uint64, wt int, v uint64, b []byte) []uint64 {
	if wt != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
