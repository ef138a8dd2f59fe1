// Membership: the dispatcher's dynamic peer roster and its
// self-healing state machine.
//
// Each peer moves through healthy → suspect → down → probing →
// healthy, driven entirely by signals the layer already produces — the
// per-shard attempt outcomes, the /healthz probes GET /v2/cluster
// runs, and the peer's circuit breaker:
//
//	healthy  no strike outstanding; first in rotation order.
//	suspect  one shard or probe failure while the breaker was still
//	         closed. A suspect peer's outstanding shard attempts are
//	         reclaimed (cancelled and reassigned) immediately, and new
//	         shards prefer any healthy peer first. Suspicion decays
//	         after DefaultSuspectWindow (the peer re-enters normal rotation)
//	         and clears on any successful attempt or probe.
//	down     the breaker opened (consecutive-failure threshold). The
//	         peer receives no shards until the cooldown elapses.
//	probing  the breaker is half-open: one probe attempt (a shard or a
//	         health probe) is in flight deciding re-admission.
//
// The roster itself is runtime-mutable: AddPeer/RemovePeer back the
// service's POST/DELETE /v2/cluster/peers, with -peers reduced to the
// seed list. Removing a peer reclaims its outstanding attempts and
// forgets it: its ledger, breaker and metric series go, so roster
// churn cannot grow the dispatcher or /metrics. Re-adding the URL
// starts it fresh.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"optspeed/internal/admit"
)

// MemberState is one peer's position in the membership lifecycle.
type MemberState string

const (
	MemberHealthy MemberState = "healthy"
	MemberSuspect MemberState = "suspect"
	MemberDown    MemberState = "down"
	MemberProbing MemberState = "probing"
)

// DefaultSuspectWindow is how long a single strike deprioritizes a
// peer before it re-enters normal rotation (a breaker-opening streak
// escalates to down long before the window matters).
const DefaultSuspectWindow = 10 * time.Second

// Hedging defaults.
const (
	// DefaultHedgeMultiplier scales the observed shard-time EWMA into
	// the hedge budget: a shard outstanding for 3× the typical time is
	// worth a second attempt.
	DefaultHedgeMultiplier = 3.0
	// DefaultHedgeMinDelay floors the hedge budget so microsecond
	// shards cannot stampede duplicate attempts.
	DefaultHedgeMinDelay = 25 * time.Millisecond
	// DefaultHedgeMaxDelay caps the budget so one pathological EWMA
	// cannot disable hedging outright.
	DefaultHedgeMaxDelay = 5 * time.Second
	// ewmaAlpha is the shard-time EWMA smoothing factor.
	ewmaAlpha = 0.25
	// ewmaOutlierFactor and ewmaOutlierAlpha make the EWMA robust: a
	// success slower than ewmaOutlierFactor× the current estimate is
	// treated as tail, not typical, and folded in at the much smaller
	// alpha. Without this, a persistently slow peer's completions drag
	// the estimate up until the hedge budget exceeds the very latency
	// hedging exists to cut — a stable no-hedge equilibrium. The slow
	// alpha (rather than outright rejection) keeps the budget honest
	// when the whole cluster genuinely slows down: sustained slowness
	// still raises the estimate, just over tens of observations.
	ewmaOutlierFactor = 4.0
	ewmaOutlierAlpha  = ewmaAlpha / 8
)

// HedgeConfig tunes hedged shard requests. The zero value enables
// hedging with the defaults; set Disable to turn it off.
type HedgeConfig struct {
	// Disable turns hedging off entirely.
	Disable bool
	// Multiplier scales the shard-time EWMA into the hedge delay;
	// 0 means DefaultHedgeMultiplier.
	Multiplier float64
	// Min floors the hedge delay; 0 means DefaultHedgeMinDelay. The
	// delay is capped at DefaultHedgeMaxDelay.
	Min time.Duration
}

// Membership errors, surfaced by the service as 409/404.
var (
	ErrPeerExists  = errors.New("dispatch: peer already a member")
	ErrPeerUnknown = errors.New("dispatch: no such peer")
)

// attemptHandle is one in-flight shard attempt's cancellation surface:
// the peer keeps a registry of its live handles so a suspect/down/
// removal transition can reclaim them, and the flags let the attempt's
// owner distinguish why its context died.
type attemptHandle struct {
	cancel    context.CancelFunc
	reclaimed atomic.Bool // cancelled because the peer turned suspect or left
	hedgedOut atomic.Bool // cancelled because the other hedge attempt won
}

// attach registers a live attempt with the peer, returning its
// registry key.
func (p *peerState) attach(h *attemptHandle) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextAttempt++
	id := p.nextAttempt
	if p.inflight == nil {
		p.inflight = make(map[uint64]*attemptHandle)
	}
	p.inflight[id] = h
	return id
}

func (p *peerState) detach(id uint64) {
	p.mu.Lock()
	delete(p.inflight, id)
	p.mu.Unlock()
}

// memberState derives the peer's lifecycle position from the breaker
// and the suspect strike. Down and probing mirror the breaker (open /
// half-open) exactly; suspect is the one extra bit this layer owns.
func (p *peerState) memberState() MemberState {
	switch p.breaker.State() {
	case admit.BreakerOpen:
		return MemberDown
	case admit.BreakerHalfOpen:
		return MemberProbing
	}
	p.mu.Lock()
	suspect := p.suspect
	p.mu.Unlock()
	if suspect {
		return MemberSuspect
	}
	return MemberHealthy
}

// normalizePeerURL validates and canonicalizes a peer base URL.
func normalizePeerURL(raw string) (string, error) {
	raw = strings.TrimRight(strings.TrimSpace(raw), "/")
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("dispatch: peer url %q: %v", raw, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("dispatch: peer url %q must be http(s)://host[:port]", raw)
	}
	return raw, nil
}

// AddPeer admits a worker into the roster at runtime with a fresh
// ledger, breaker, and metric series. Returns ErrPeerExists when the
// peer is already a member.
func (d *Dispatcher) AddPeer(rawURL string) error {
	u, err := normalizePeerURL(rawURL)
	if err != nil {
		return err
	}
	d.pmu.Lock()
	if d.memberIndex(u) >= 0 {
		d.pmu.Unlock()
		return ErrPeerExists
	}
	p := d.newPeerState(u)
	d.members = append(d.members, p)
	if d.reg != nil {
		d.registerPeerSeries(p)
	}
	d.pmu.Unlock()
	d.countMembership("added")
	if d.logger != nil {
		d.logger.Info("peer joined", "peer", u)
	}
	return nil
}

// memberIndex returns the roster position of url, or -1. Caller holds
// d.pmu.
func (d *Dispatcher) memberIndex(url string) int {
	for i, m := range d.members {
		if m.url == url {
			return i
		}
	}
	return -1
}

// RemovePeer evicts a worker from the roster: it stops receiving
// shards immediately, its outstanding attempts are reclaimed and
// reassigned, and its ledger, breaker and metric series are dropped.
// Returns ErrPeerUnknown when the URL is not a member.
func (d *Dispatcher) RemovePeer(rawURL string) error {
	u, err := normalizePeerURL(rawURL)
	if err != nil {
		return err
	}
	d.pmu.Lock()
	idx := d.memberIndex(u)
	if idx < 0 {
		d.pmu.Unlock()
		return ErrPeerUnknown
	}
	p := d.members[idx]
	d.members = append(d.members[:idx], d.members[idx+1:]...)
	if d.reg != nil {
		d.unregisterPeerSeries(p)
	}
	d.pmu.Unlock()
	var handles []*attemptHandle
	p.mu.Lock()
	p.removed = true
	for _, h := range p.inflight {
		handles = append(handles, h)
	}
	p.mu.Unlock()
	for _, h := range handles {
		h.reclaimed.Store(true)
		h.cancel()
	}
	d.countMembership("removed")
	if d.logger != nil {
		d.logger.Info("peer removed", "peer", u, "reclaimed_attempts", len(handles))
	}
	return nil
}

// PeerURLs returns the current roster in rotation order.
func (d *Dispatcher) PeerURLs() []string {
	d.pmu.Lock()
	defer d.pmu.Unlock()
	out := make([]string, len(d.members))
	for i, p := range d.members {
		out[i] = p.url
	}
	return out
}

// snapshotMembers copies the roster for one scatter or status pass.
func (d *Dispatcher) snapshotMembers() []*peerState {
	d.pmu.Lock()
	defer d.pmu.Unlock()
	out := make([]*peerState, len(d.members))
	copy(out, d.members)
	return out
}

// markSuspect records a strike against the peer and, on the healthy →
// suspect edge, reclaims its outstanding shard attempts so tail work
// moves to other peers immediately instead of waiting out the stream
// timeout.
func (d *Dispatcher) markSuspect(p *peerState) {
	p.mu.Lock()
	if p.removed {
		p.mu.Unlock()
		return
	}
	fresh := !p.suspect
	p.suspect = true
	p.suspectAt = time.Now()
	var handles []*attemptHandle
	if fresh {
		for _, h := range p.inflight {
			handles = append(handles, h)
		}
	}
	p.mu.Unlock()
	if !fresh {
		return
	}
	d.countMembership("suspected")
	for _, h := range handles {
		h.reclaimed.Store(true)
		h.cancel()
	}
	if d.logger != nil {
		d.logger.Warn("peer suspected", "peer", p.url, "reclaimed_attempts", len(handles))
	}
}

// clearSuspect wipes the strike (a successful attempt or probe).
func (p *peerState) clearSuspect() {
	p.mu.Lock()
	p.suspect = false
	p.mu.Unlock()
}

// nextPeer selects the next attempt's peer for a shard: untried
// members in rotation order (offset by the shard index so concurrent
// shards spread load), with fresh suspects deferred to a second pass —
// a suspect peer is only assigned when no non-suspect candidate
// admits the attempt. When consume is true the winning peer's breaker
// admission is consumed (a half-open breaker's single probe slot);
// peek with consume=false to ask whether any candidate remains.
func (d *Dispatcher) nextPeer(shardIdx int, tried map[string]bool, consume bool) *peerState {
	members := d.snapshotMembers()
	n := len(members)
	if n == 0 {
		return nil
	}
	now := time.Now()
	var suspects []*peerState
	for i := 0; i < n; i++ {
		p := members[(shardIdx+i)%n]
		if tried[p.url] {
			continue
		}
		p.mu.Lock()
		removed := p.removed
		fresh := p.suspect && now.Sub(p.suspectAt) <= DefaultSuspectWindow
		p.mu.Unlock()
		if removed {
			continue
		}
		if fresh {
			suspects = append(suspects, p)
			continue
		}
		if !consume {
			return p
		}
		if p.breaker.Allow() {
			return p
		}
	}
	for _, p := range suspects {
		if !consume {
			return p
		}
		if p.breaker.Allow() {
			return p
		}
	}
	return nil
}

// observeAttempt folds one successful attempt's duration into the
// shard-time EWMA. Only successes feed it (a cancelled hedge loser or
// a failing peer says nothing about how long a healthy shard takes),
// and tail successes — slower than ewmaOutlierFactor× the estimate —
// feed it at the damped ewmaOutlierAlpha, so a slow peer's completions
// cannot poison the budget that is supposed to route around them.
func (d *Dispatcher) observeAttempt(dur time.Duration) {
	s := dur.Seconds()
	for {
		old := d.ewmaBits.Load()
		next := s
		if old != 0 {
			cur := math.Float64frombits(old)
			a := ewmaAlpha
			if s > ewmaOutlierFactor*cur {
				a = ewmaOutlierAlpha
			}
			next = cur + a*(s-cur)
		}
		if d.ewmaBits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// hedgeDelay returns the current per-shard latency budget: the point
// at which an outstanding attempt is slow enough to launch a second
// one. Hedging stays off until the first successful attempt seeds the
// EWMA — with no observations there is no notion of "slow".
func (d *Dispatcher) hedgeDelay() (time.Duration, bool) {
	if d.hedgeOff {
		return 0, false
	}
	bits := d.ewmaBits.Load()
	if bits == 0 {
		return 0, false
	}
	delay := time.Duration(math.Float64frombits(bits) * d.hedgeMult * float64(time.Second))
	if delay < d.hedgeMin {
		delay = d.hedgeMin
	}
	if delay > DefaultHedgeMaxDelay {
		delay = DefaultHedgeMaxDelay
	}
	return delay, true
}

// countMembership bumps one membership-event counter.
func (d *Dispatcher) countMembership(event string) {
	d.mu.Lock()
	if d.membershipEvents == nil {
		d.membershipEvents = make(map[string]int)
	}
	d.membershipEvents[event]++
	d.mu.Unlock()
}
