package main

import (
	"sort"
	"strings"
	"time"

	"windar/internal/harness"
	"windar/internal/metrics"
	"windar/internal/obs"
)

// This file turns repetitions into the named metrics. BENCHMARK.json
// lists the same names; perfbench/README.md says which end-to-end metric
// each per-layer metric should move, on which workload.

const mib = 1 << 20

// quietest returns the half of reps (rounded up) that ran with the least
// interference from other guests and processes, in their original order.
// On a shared machine a repetition slowed by stolen CPU measures the
// neighbours, not the program; the selection uses the machine's counters,
// never the metric, and a change to the program cannot move it, since
// the program's own CPU time is not interference.
func quietest(reps []*repResult) []*repResult {
	idx := make([]int, len(reps))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return reps[idx[a]].interference < reps[idx[b]].interference })
	idx = idx[:(len(reps)+1)/2]
	sort.Ints(idx)
	out := make([]*repResult, len(idx))
	for i, j := range idx {
		out[i] = reps[j]
	}
	return out
}

// minAvailable floors the CPU share a repetition is credited with.
const minAvailable = 0.2

// available is the share of the machine's CPU left to a repetition by
// other guests and processes. Time figures are scaled by it: a run that
// got 80% of the machine is charged 80% of its wall time, so a
// neighbour's burst moves the figures less. The raw values stay in the
// detail record.
func available(r *repResult) float64 { return max(minAvailable, 1-r.interference) }

func appendScaled(dst, ds []time.Duration, f float64) []time.Duration {
	for _, d := range ds {
		dst = append(dst, time.Duration(float64(d)*f))
	}
	return dst
}

// endToEnd computes the user-visible metrics from the quietest half of
// the untraced measured repetitions (main) and of the kill repetitions
// (recovery), time figures scaled to the CPU each repetition had.
func endToEnd(main, recovery []*repResult) map[string]float64 {
	main, recovery = quietest(main), quietest(recovery)
	var setups, rates, heaps []float64
	var pigBytes, sent int64
	var recov []time.Duration
	for _, r := range main {
		avail := available(r)
		setups = append(setups, r.setup.Seconds()*avail)
		rates = append(rates, ratio(float64(r.msgs), r.elapsed.Seconds()*avail))
		heaps = append(heaps, float64(r.setupHeap)/mib)
		pigBytes += r.totals.PiggybackBytes
		sent += r.totals.MsgsSent
		recov = appendScaled(recov, r.recoveries, avail)
	}
	for _, r := range recovery {
		recov = appendScaled(recov, r.recoveries, available(r))
	}
	return map[string]float64{
		"setup_s":           median(setups),
		"msgs_per_s":        median(rates),
		"recovery_ms_p50":   durQuantile(recov, 0.5, time.Millisecond),
		"recovery_ms_p90":   durQuantile(recov, 0.9, time.Millisecond),
		"setup_heap_mb":     median(heaps),
		"pig_bytes_per_msg": ratio(float64(pigBytes), float64(sent)),
	}
}

// probeSet holds the layer probes of a traced run.
type probeSet struct {
	pigEnc, pigDec, frameRead probeStat
	ckptEnc, ckptDec          probeStat
	diskPutSync               probeStat
}

// perLayer computes the traced ledger from the traced repetitions, the
// untraced repetitions interleaved with them, the probes and the CPU
// shares.
func perLayer(n int, traced, untraced []*repResult, pr probeSet, cpu map[string]float64) map[string]float64 {
	m := map[string]float64{}

	var tot metrics.Snapshot
	var msgs int64
	var stepNS, sendNS, recvNS, steps, sends, recvs int64
	var stalls, puts, lazies, syncs []time.Duration
	phases := map[string][]time.Duration{}
	var deliverLat, recvBatch obs.HistSnapshot
	var recoveries, controlMsgs, stableOps, stableBytes, ckptPuts, ckptBytes, commits int64
	var diskBytes, replayRates, tracedRates []float64
	logPeak := 0
	for _, r := range traced {
		tot = tot.Add(r.totals)
		msgs += r.msgs
		tracedRates = append(tracedRates, ratio(float64(r.msgs), r.elapsed.Seconds()))
		recoveries += int64(len(r.recoveries))
		logPeak = max(logPeak, r.logLivePeak)
		commits += r.commits
		diskBytes = append(diskBytes, float64(r.diskBytes))
		if r.replayTime > 0 {
			replayRates = append(replayRates, float64(r.replayKeys)/r.replayTime.Seconds())
		}
		t := r.tr
		for i := range t.ranks {
			rt := &t.ranks[i]
			stepNS += rt.stepNS.Load()
			sendNS += rt.sendNS.Load()
			recvNS += rt.recvNS.Load()
			steps += rt.steps.Load()
			sends += rt.sends.Load()
			recvs += rt.recvs.Load()
		}
		stalls = append(stalls, t.stalls...)
		for ph, ds := range t.phases {
			phases[ph] = append(phases[ph], ds...)
		}
		controlMsgs += t.rollbackMsgs.Load() + t.responses.Load()
		for _, f := range t.reg.Snapshot() {
			switch f.Name {
			case "deliver_latency_ns":
				deliverLat = deliverLat.Add(f.Total)
			case "recv_batch_envelopes":
				recvBatch = recvBatch.Add(f.Total)
			}
		}
		sb := t.stable
		puts = append(puts, sb.put...)
		lazies = append(lazies, sb.putLazy...)
		syncs = append(syncs, sb.syncs...)
		stableOps += sb.ops.Load()
		stableBytes += sb.bytes.Load()
		ckptPuts += sb.ckptPuts.Load()
		ckptBytes += sb.ckptBytes.Load()
	}

	// app: the application's own compute and its calls into the harness.
	m["app.compute_ms_per_step"] = ratio(float64(stepNS-sendNS-recvNS), float64(steps)) / 1e6
	m["app.send_us_per_msg"] = ratio(float64(sendNS), float64(sends)) / 1e3
	m["app.recv_wait_us_per_msg"] = ratio(float64(recvNS), float64(recvs)) / 1e3

	// harness: checkpoint staging, delivery, recovery.
	m["harness.ckpt_stall_us_p50"] = durQuantile(stalls, 0.5, time.Microsecond)
	m["harness.ckpt_stall_us_p99"] = durQuantile(stalls, 0.99, time.Microsecond)
	m["harness.deliver_latency_us_p50"] = float64(deliverLat.Quantile(0.5)) / 1e3
	m["harness.deliver_latency_us_p99"] = float64(deliverLat.Quantile(0.99)) / 1e3
	m["harness.recv_batch_mean"] = recvBatch.Mean()
	m["harness.shard_contended_ratio"] = ratio(float64(tot.ShardContended), float64(tot.MsgsDelivered))
	for _, ph := range harness.RecoveryPhases {
		name := "harness.recovery." + strings.ReplaceAll(ph, "-", "_") + "_ms_p50"
		m[name] = durQuantile(phases[ph], 0.5, time.Millisecond)
	}
	m["harness.resend_useful_ratio"] = ratio(float64(tot.ResentMsgs-tot.RepetitiveDiscarded), float64(tot.ResentMsgs))
	m["harness.control_msgs_per_recovery"] = ratio(float64(controlMsgs), float64(recoveries))

	// core: TDI piggybacks.
	m["core.pig_ids_per_msg"] = ratio(float64(tot.PiggybackIDs), float64(tot.MsgsSent))
	m["core.pig_delta_ratio"] = ratio(float64(tot.PigDeltaMsgs), float64(tot.PigDeltaMsgs+tot.PigFullMsgs))

	// proto: the sender log.
	m["proto.log_items_per_msg"] = ratio(float64(tot.LogItemsAppended), float64(msgs))
	m["proto.log_release_ratio"] = ratio(float64(tot.LogItemsReleased), float64(tot.LogItemsAppended))
	m["proto.log_live_peak"] = float64(logPeak)

	// wire: probes at the workload's vector width.
	m["wire.pig_encode_ns"] = pr.pigEnc.ns
	m["wire.pig_encode_allocs"] = pr.pigEnc.allocs
	m["wire.pig_decode_ns"] = pr.pigDec.ns
	m["wire.pig_decode_allocs"] = pr.pigDec.allocs
	m["wire.frame_read_ns"] = pr.frameRead.ns
	m["wire.frame_read_allocs"] = pr.frameRead.allocs

	// ckpt: blob size from the run, codec cost from probes on its last
	// checkpoint.
	m["ckpt.bytes_mean"] = ratio(float64(ckptBytes), float64(ckptPuts))
	m["ckpt.encode_us"] = pr.ckptEnc.ns / 1e3
	m["ckpt.encode_allocs"] = pr.ckptEnc.allocs
	m["ckpt.decode_us"] = pr.ckptDec.ns / 1e3
	m["ckpt.decode_allocs"] = pr.ckptDec.allocs

	// stable: backend calls timed through the wrapper, WAL footprint and
	// cold replay, and the disk probe.
	m["stable.put_us_p50"] = durQuantile(puts, 0.5, time.Microsecond)
	m["stable.put_lazy_us_p50"] = durQuantile(lazies, 0.5, time.Microsecond)
	m["stable.sync_us_p50"] = durQuantile(syncs, 0.5, time.Microsecond)
	m["stable.sync_us_p99"] = durQuantile(syncs, 0.99, time.Microsecond)
	m["stable.ops_per_msg"] = ratio(float64(stableOps), float64(msgs))
	m["stable.write_bytes_per_payload_byte"] = ratio(float64(stableBytes), float64(tot.PayloadBytes))
	m["stable.group_commits"] = ratio(float64(commits), float64(len(traced)))
	m["stable.disk_bytes_end"] = median(diskBytes)
	m["stable.replay_keys_per_s"] = median(replayRates)
	m["stable.probe_put_sync_us"] = pr.diskPutSync.ns / 1e3
	m["stable.probe_put_sync_allocs"] = pr.diskPutSync.allocs

	// cpu: module shares of the profile.
	for _, mod := range cpuModules {
		m["cpu."+mod] = cpu[mod]
	}

	// gc and set-up: from the untraced repetitions, which carry no
	// tracing allocations.
	var mallocs, allocBytes, gcs, umsgs int64
	var elapsed float64
	var heaps, rates []float64
	for _, r := range untraced {
		mallocs += int64(r.mallocs)
		allocBytes += int64(r.allocBytes)
		gcs += int64(r.gcs)
		umsgs += r.msgs
		elapsed += r.elapsed.Seconds()
		heaps = append(heaps, float64(r.setupHeap))
		rates = append(rates, ratio(float64(r.msgs), r.elapsed.Seconds()))
	}
	m["gc.allocs_per_msg"] = ratio(float64(mallocs), float64(umsgs))
	m["gc.alloc_bytes_per_msg"] = ratio(float64(allocBytes), float64(umsgs))
	m["gc.cycles_per_s"] = ratio(float64(gcs), elapsed)
	m["setup.heap_per_rank_kb"] = median(heaps) / float64(n) / 1024

	// trace: what the tracing itself costs.
	m["trace.overhead_ratio"] = ratio(median(tracedRates), median(rates))
	return m
}
