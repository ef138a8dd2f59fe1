package main

import (
	"fmt"
	"time"

	"optspeed/internal/sweep"
)

// ladderTolerancePct bounds the ladder's accounting. Self times are
// differences of adjacent rungs, so they always sum to the L0 time; what
// can go wrong is a rung that is slower than the one above it, whose
// negative self time would silently cancel against a neighbour's. The
// negative parts together must stay within this share of L0.
const ladderTolerancePct = 15.0

// perLayer is the traced run's metric set, in BENCHMARK.json order.
// Layers that do no work on a workload report 0 there (dispatch off
// the cluster, the jobs read/write path and the store off
// jobs-durable, core on serve-warm).
var perLayer = []struct{ name, unit, better string }{
	{"ladder.l0_ms_per_op", "ms", "lower"},
	{"ladder.unaccounted_pct", "%", "lower"},
	{"service.wire_ms_per_op", "ms", "lower"},
	{"service.self_ms_per_op", "ms", "lower"},
	{"service.resp_kb_per_op", "kB", "lower"},
	{"admit.admitted_per_op", "count", "lower"},
	{"admit.queued_peak", "count", "lower"},
	{"admit.sheds", "count", "lower"},
	{"jobs.self_ms_per_op", "ms", "lower"},
	{"jobs.submit_ms", "ms", "lower"},
	{"jobs.terminal_ms", "ms", "lower"},
	{"jobs.page_ms", "ms", "lower"},
	{"jobs.polls_per_op", "count", "lower"},
	{"jobs.pages_per_op", "count", "lower"},
	{"jobs.resident", "count", "lower"},
	{"store.append_us", "us", "lower"},
	{"store.records_per_op", "count", "lower"},
	{"store.wal_kb_per_op", "kB", "lower"},
	{"store.fsyncs", "count", "lower"},
	{"store.recovery_s", "s", "lower"},
	{"store.recovered_jobs", "count", "higher"},
	{"dispatch.self_ms_per_op", "ms", "lower"},
	{"dispatch.peer_rtt_ms", "ms", "lower"},
	{"dispatch.peer_kb_per_op", "kB", "lower"},
	{"dispatch.shards_per_op", "count", "lower"},
	{"dispatch.retries_per_op", "count", "lower"},
	{"dispatch.critical_path_ratio", "ratio", "higher"},
	{"sweep.self_ms_per_op", "ms", "lower"},
	{"sweep.hit_ratio", "ratio", "higher"},
	{"sweep.cache_entries", "count", "lower"},
	{"core.self_ms_per_op", "ms", "lower"},
	{"core.evals_per_op", "count", "lower"},
	{"telemetry.trace_overhead_pct", "%", "lower"},
}

// ladderRungs are the rungs one ladder round runs, each on its own
// fresh state and alone, so every rung sees the same conditions as the
// untraced end-to-end run: one state resident, nothing interleaved. The
// untraced L0 next to the traced one gives the tracing overhead.
var ladderRungs = [...]struct {
	r      rung
	traced bool
}{
	{rungHTTP, false},
	{rungHTTP, true},
	{rungHandler, true},
	{rungJobs, true},
	{rungEngine, true},
	{rungCore, true},
}

// ladderRound holds one round's results, indexed like ladderRungs.
type ladderRound [len(ladderRungs)]*roundResult

// ladderRound runs every rung once. Odd rounds run the rungs in reverse
// order, so a drift in machine speed over a round lands on the top and
// bottom rungs alike across rounds. The core rung evaluates what the
// engine rung last missed on the same op: a cold op misses every spec,
// a warm one none, whichever round measured it.
func (b *bench) ladderRound(index int) (ladderRound, tally, error) {
	var lr ladderRound
	var total tally
	for k := range ladderRungs {
		if index%2 == 1 {
			k = len(ladderRungs) - 1 - k
		}
		spec := ladderRungs[k]
		var t tally
		var err error
		lr[k], t, err = b.phaseRun(spec.r, spec.traced)
		total.add(t)
		if err != nil {
			return lr, total, err
		}
		if spec.r == rungEngine {
			b.misses = make([][]sweep.Spec, len(lr[k].recs))
			for i := range lr[k].recs {
				b.misses[i] = evaluated(&b.timed[i], &lr[k].recs[i])
			}
		}
	}
	return lr, total, nil
}

// meanMs is a rung's mean op latency: its time per op.
func meanMs(r *roundResult) float64 {
	var sum time.Duration
	for _, d := range r.lat {
		sum += d
	}
	return ms(sum) / float64(len(r.lat))
}

// ladderMetrics reduces the rounds to the per-layer metrics: each is
// the median over rounds, and a layer's self time is the difference of
// its rung's and the next rung's median times. It fails when negative
// self times (a lower rung slower than the one above it) leave more
// than ladderTolerancePct of the L0 time unaccounted, or a critical
// path exceeds its wall time.
func ladderMetrics(w *workload, rounds []ladderRound) (map[string]metric, error) {
	per := map[string][]float64{}
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	var rungMs [len(ladderRungs)][]float64
	var cpr []float64
	for _, lr := range rounds {
		for k, rr := range lr {
			rungMs[k] = append(rungMs[k], meanMs(rr))
		}
		l0 := lr[1]
		c, l2 := l0.c, lr[3]
		ops := float64(len(l0.recs))
		var respBytes, polls, pages int
		for _, rec := range l0.recs {
			respBytes += rec.bytes
			polls += rec.polls
			pages += rec.pages
		}
		var submit, wait, pageDur time.Duration
		var l2Pages int
		for _, rec := range l2.recs {
			submit += rec.submit
			wait += rec.wait
			pageDur += rec.pageDur
			l2Pages += rec.pages
		}
		add("service.resp_kb_per_op", float64(respBytes)/1024/ops)
		add("admit.admitted_per_op", float64(c.admitted)/ops)
		add("admit.queued_peak", float64(c.queuedPeak))
		add("admit.sheds", float64(c.sheds))
		add("jobs.submit_ms", ms(submit)/ops)
		add("jobs.terminal_ms", ms(wait)/ops)
		add("jobs.page_ms", ratio(ms(pageDur), float64(l2Pages)))
		add("jobs.polls_per_op", float64(polls)/ops)
		add("jobs.pages_per_op", float64(pages)/ops)
		add("jobs.resident", float64(c.resident))
		add("store.append_us", ratio(float64(l2.c.persistBusy)/float64(time.Microsecond), float64(l2.c.persistRecords)))
		// The log's counters reset at compaction, which runs every
		// jobs.DefaultSnapshotInterval: far longer than one phase.
		add("store.records_per_op", float64(c.walRecords)/ops)
		add("store.wal_kb_per_op", float64(c.walBytes)/1024/ops)
		add("store.fsyncs", float64(c.fsyncs))
		add("store.recovery_s", c.recovery.Seconds())
		add("store.recovered_jobs", float64(c.recoveredJobs))
		add("dispatch.peer_rtt_ms", ratio(ms(c.peerBusy), float64(c.peerCalls)))
		add("dispatch.peer_kb_per_op", float64(c.peerBytes)/1024/ops)
		add("dispatch.shards_per_op", float64(c.shards)/ops)
		add("dispatch.retries_per_op", float64(c.retries)/ops)
		add("dispatch.critical_path_ratio", median(c.criticalPathRatio))
		cpr = append(cpr, c.criticalPathRatio...)
		add("sweep.hit_ratio", ratio(float64(c.hits), float64(c.hits+c.evals)))
		add("sweep.cache_entries", float64(c.cacheLen))
		add("core.evals_per_op", float64(c.evals)/ops)
	}
	var r [len(ladderRungs)]float64
	for k := range r {
		r[k] = median(rungMs[k])
	}
	// r[0] is the untraced L0; r[1:] are L0..L4 traced.
	self := [rungCore + 1]float64{r[1] - r[2], r[2] - r[3], r[3] - r[4], r[4] - r[5], r[5]}
	var negative float64
	for _, v := range self {
		negative += max(0, -v)
	}
	out := map[string]metric{}
	for _, m := range perLayer {
		out[m.name] = metric{Value: median(per[m.name]), Unit: m.unit}
	}
	set := func(name string, v float64) { out[name] = metric{Value: v, Unit: out[name].Unit} }
	set("ladder.l0_ms_per_op", r[1])
	set("ladder.unaccounted_pct", 100*negative/r[1])
	set("telemetry.trace_overhead_pct", 100*(r[1]/r[0]-1))
	set("service.wire_ms_per_op", self[rungHTTP])
	set("service.self_ms_per_op", self[rungHandler])
	// L2 is the jobs store on a single node and the dispatcher on the
	// cluster, so L2−L3 is that layer's self time (a single node's
	// dispatcher is the engine's own RunSpace path).
	jobsSelf, dispatchSelf := self[rungJobs], 0.0
	if w.peers > 0 {
		jobsSelf, dispatchSelf = 0, self[rungJobs]
	}
	set("jobs.self_ms_per_op", jobsSelf)
	set("dispatch.self_ms_per_op", dispatchSelf)
	set("sweep.self_ms_per_op", self[rungEngine])
	set("core.self_ms_per_op", self[rungCore])
	if p := out["ladder.unaccounted_pct"].Value; p > ladderTolerancePct {
		return out, fmt.Errorf("ladder: negative self times leave %.1f%% of L0 unaccounted (tolerance %.0f%%); rung ms/op %v", p, ladderTolerancePct, r)
	}
	for _, v := range cpr {
		if v > 1 {
			return out, fmt.Errorf("dispatch: critical path exceeds wall time (ratio %.4f)", v)
		}
	}
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
