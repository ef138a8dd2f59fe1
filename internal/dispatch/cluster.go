package dispatch

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"optspeed/internal/admit"
)

// PeerStatus is one peer's health snapshot: the rolling shard ledger
// plus a live /healthz probe taken at snapshot time.
type PeerStatus struct {
	URL string `json:"url"`
	// State is the peer's membership lifecycle position: "healthy",
	// "suspect", "down", or "probing" (see membership.go).
	State string `json:"state"`
	// Healthy reports the live probe's verdict.
	Healthy bool `json:"healthy"`
	// ProbeMs is the probe round-trip in milliseconds (0 when the
	// probe failed before timing mattered).
	ProbeMs float64 `json:"probe_ms"`
	// ShardsOK and ShardsFailed count this peer's shard attempts since
	// the coordinator started.
	ShardsOK     int `json:"shards_ok"`
	ShardsFailed int `json:"shards_failed"`
	// LastError is the most recent shard or probe failure ("" if none).
	LastError string `json:"last_error,omitempty"`
	// LastErrorAt timestamps LastError (nil when it never fired —
	// omitempty does not elide zero time.Time structs, a pointer does).
	LastErrorAt *time.Time `json:"last_error_at,omitempty"`
	// Breaker is the peer's circuit-breaker state: "closed", "open",
	// or "half-open".
	Breaker string `json:"breaker"`
	// BreakerRetryInMs is how long until an open breaker next admits a
	// probe attempt (0 when closed or the cooldown already elapsed).
	BreakerRetryInMs float64 `json:"breaker_retry_in_ms,omitempty"`
}

// ClusterStatus is the coordinator's view of its worker fleet.
type ClusterStatus struct {
	// Mode is "coordinator" when peers are configured, else "single".
	Mode      string       `json:"mode"`
	ShardSize int          `json:"shard_size"`
	Peers     []PeerStatus `json:"peers"`
	Shards    Stats        `json:"shards"`
	// HedgeDelayMs is the current hedged-request latency budget in
	// milliseconds (0 until the first successful shard seeds the EWMA,
	// or when hedging is disabled).
	HedgeDelayMs float64 `json:"hedge_delay_ms,omitempty"`
	// Membership counts lifecycle events since start, by event:
	// added, removed, suspected, down, readmitted.
	Membership map[string]int `json:"membership_events,omitempty"`
}

// Coordinator reports whether the server scatters sweeps across peers.
func (cs *ClusterStatus) Coordinator() bool { return cs.Mode == "coordinator" }

// ClusterStatus probes every member's /healthz concurrently (bounded
// by DefaultProbeTimeout each) and merges the verdicts with the
// rolling shard ledger. Probe verdicts feed membership: a success
// clears a suspect strike, a failure strikes the peer and counts
// against its breaker. With no members it reports single-node mode.
func (d *Dispatcher) ClusterStatus(ctx context.Context) ClusterStatus {
	st := ClusterStatus{
		Mode:      "single",
		ShardSize: d.shardSize,
		Shards:    d.Stats(),
	}
	if delay, ok := d.hedgeDelay(); ok {
		st.HedgeDelayMs = float64(delay) / float64(time.Millisecond)
	}
	d.mu.Lock()
	if len(d.membershipEvents) > 0 {
		st.Membership = make(map[string]int, len(d.membershipEvents))
		for k, v := range d.membershipEvents {
			st.Membership[k] = v
		}
	}
	d.mu.Unlock()
	members := d.snapshotMembers()
	if len(members) == 0 {
		return st
	}
	st.Mode = "coordinator"
	st.Peers = make([]PeerStatus, len(members))
	var wg sync.WaitGroup
	for i, p := range members {
		wg.Add(1)
		go func(i int, p *peerState) {
			defer wg.Done()
			// The probe's leash follows the breaker: a peer already
			// known bad gets the short timeout, so a status read never
			// stalls two seconds behind each black-holed peer.
			timeout := DefaultProbeTimeout
			if p.breaker.State() != admit.BreakerClosed {
				timeout = DefaultProbeTimeoutDegraded
			}
			healthy, rtt, probeErr := d.probe(ctx, p.url, timeout)
			if ctx.Err() == nil {
				d.recordProbe(p, healthy)
			}
			p.mu.Lock()
			ps := PeerStatus{
				URL:          p.url,
				Healthy:      healthy,
				ProbeMs:      float64(rtt) / float64(time.Millisecond),
				ShardsOK:     p.shardsOK,
				ShardsFailed: p.shardsErr,
				LastError:    p.lastErr,
			}
			if !p.lastErrAt.IsZero() {
				at := p.lastErrAt
				ps.LastErrorAt = &at
			}
			p.mu.Unlock()
			if probeErr != nil && ps.LastError == "" {
				ps.LastError = probeErr.Error()
			}
			ps.State = string(p.memberState())
			ps.Breaker = string(p.breaker.State())
			ps.BreakerRetryInMs = float64(p.breaker.RetryIn()) / float64(time.Millisecond)
			st.Peers[i] = ps
		}(i, p)
	}
	wg.Wait()
	return st
}

// recordProbe feeds a health-probe verdict into the peer's breaker and
// the membership layer. A success clears any suspect strike, and
// matters to a non-closed breaker — it re-admits an ejected peer
// without waiting for a sweep to chance by — while a closed breaker
// ignores it so a liveness blip cannot mask real shard failures'
// consecutive count. A failure strikes the peer (reclaiming its
// outstanding shards) and always counts against the breaker: three
// dead probes eject a peer before any sweep wastes an attempt on it.
func (d *Dispatcher) recordProbe(p *peerState, healthy bool) {
	if healthy {
		p.clearSuspect()
		if p.breaker.State() != admit.BreakerClosed {
			p.breaker.Success()
		}
		return
	}
	d.markSuspect(p)
	p.breaker.Failure()
}

// probe checks one peer's liveness endpoint.
func (d *Dispatcher) probe(ctx context.Context, base string, timeout time.Duration) (bool, time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return false, 0, err
	}
	start := time.Now()
	resp, err := d.hc.Do(req)
	if err != nil {
		return false, 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 256))
	rtt := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		return false, rtt, fmt.Errorf("healthz returned %d", resp.StatusCode)
	}
	return true, rtt, nil
}
