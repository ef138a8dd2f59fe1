package dispatch

import (
	"optspeed/internal/admit"
	"optspeed/internal/telemetry"
)

// membershipEventNames is the closed set of lifecycle events the
// membership layer counts — enumerated here so every label value
// exists from the first scrape (Prometheus rate() needs the zero
// sample before the first event, and the registry's label space stays
// bounded).
var membershipEventNames = []string{"added", "removed", "suspected", "down", "readmitted"}

// RegisterMetrics exports the dispatcher's shard, hedge, membership,
// and per-peer counters as scrape-time reads. The roster is mutable,
// so per-peer series follow it: every current member's now, each
// later AddPeer's at admit time, and RemovePeer unregisters them, so
// the per-peer series count stays three per member.
func (d *Dispatcher) RegisterMetrics(r *telemetry.Registry) {
	r.NewCounterFunc("optspeed_dispatch_shards_planned_total",
		"Shards handed to the scatter loop.",
		func() float64 { return float64(d.Stats().ShardsPlanned) })
	r.NewCounterFunc("optspeed_dispatch_shards_retried_total",
		"Shards that needed more than one attempt.",
		func() float64 { return float64(d.Stats().ShardsRetried) })
	r.NewCounterFunc("optspeed_dispatch_shards_fallback_total",
		"Shards the local engine finished after the peers could not.",
		func() float64 { return float64(d.Stats().ShardsFallback) })
	r.NewCounterFunc("optspeed_dispatch_hedges_launched_total",
		"Second shard attempts launched past the latency budget.",
		func() float64 { return float64(d.Stats().HedgesLaunched) })
	r.NewCounterFunc("optspeed_dispatch_hedges_won_total",
		"Hedged attempts that delivered the shard first.",
		func() float64 { return float64(d.Stats().HedgesWon) })
	r.NewCounterFunc("optspeed_dispatch_attempts_reclaimed_total",
		"In-flight shard attempts cancelled because their peer turned suspect, went down, or left the roster.",
		func() float64 { return float64(d.Stats().AttemptsReclaimed) })
	for _, ev := range membershipEventNames {
		ev := ev
		r.NewCounterFunc("optspeed_dispatch_membership_events_total",
			"Peer membership lifecycle events, by event.",
			func() float64 {
				d.mu.Lock()
				defer d.mu.Unlock()
				return float64(d.membershipEvents[ev])
			}, telemetry.L("event", ev))
	}
	for _, state := range []MemberState{MemberHealthy, MemberSuspect, MemberDown, MemberProbing} {
		state := state
		r.NewGaugeFunc("optspeed_dispatch_peers",
			"Roster members currently in each membership state.",
			func() float64 {
				n := 0
				for _, p := range d.snapshotMembers() {
					if p.memberState() == state {
						n++
					}
				}
				return float64(n)
			}, telemetry.L("state", string(state)))
	}
	d.pmu.Lock()
	d.reg = r
	for _, p := range d.members {
		d.registerPeerSeries(p)
	}
	d.pmu.Unlock()
}

// registerPeerSeries creates one member's labelled series, read from
// its ledger at scrape time. Caller holds d.pmu.
func (d *Dispatcher) registerPeerSeries(p *peerState) {
	const shardHelp = "Shard attempts against one peer, by outcome."
	lbl := telemetry.L("peer", p.url)
	d.reg.NewCounterFunc("optspeed_dispatch_peer_shards_total", shardHelp,
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(p.shardsOK)
		}, lbl, telemetry.L("outcome", "ok"))
	d.reg.NewCounterFunc("optspeed_dispatch_peer_shards_total", shardHelp,
		func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(p.shardsErr)
		}, lbl, telemetry.L("outcome", "error"))
	d.reg.NewGaugeFunc("optspeed_dispatch_peer_breaker_open",
		"Peer circuit breaker position: 0 closed, 0.5 half-open, 1 open.",
		func() float64 {
			switch p.breaker.State() {
			case admit.BreakerOpen:
				return 1
			case admit.BreakerHalfOpen:
				return 0.5
			default:
				return 0
			}
		}, lbl)
}

// unregisterPeerSeries drops the series registerPeerSeries made for a
// peer leaving the roster. Caller holds d.pmu.
func (d *Dispatcher) unregisterPeerSeries(p *peerState) {
	lbl := telemetry.L("peer", p.url)
	d.reg.Unregister("optspeed_dispatch_peer_shards_total", lbl, telemetry.L("outcome", "ok"))
	d.reg.Unregister("optspeed_dispatch_peer_shards_total", lbl, telemetry.L("outcome", "error"))
	d.reg.Unregister("optspeed_dispatch_peer_breaker_open", lbl)
}
