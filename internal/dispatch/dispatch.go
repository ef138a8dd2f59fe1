// Package dispatch is the scatter–gather distribution layer: it
// partitions a sweep into contiguous shards, fans the shards out to
// peer optspeedd workers over the v2 streaming API in its answer-record
// format (record.go), and merges the shard streams back into the
// engine's pooled-chunk result pipeline in deterministic spec order.
//
// The layer is deliberately conservative about equivalence: a
// distributed sweep must be indistinguishable from a single-node one.
// Shards are sub-spaces of the parent space (so peers keep the
// engine's space-aware evaluation), results carry their global index
// and are merged shard by shard in submission order, duplicate
// deliveries are deduplicated on index, failed shards are reassigned
// to the remaining peers, and a shard no peer can serve falls back to
// the coordinator's own engine — the same evaluation the single-node
// path would have run. With no peers configured every call is a plain
// local evaluation with no added overhead.
//
// On top of reassignment the layer self-heals (see membership.go): the
// peer roster is runtime-mutable, peers move through a
// healthy/suspect/down/probing lifecycle driven by attempt outcomes
// and health probes, a suspect peer's outstanding shards are reclaimed
// immediately, and slow shards are hedged — once an attempt has been
// outstanding for a multiple of the observed shard-time EWMA, the
// shard is launched on a second peer and the loser is cancelled. The
// first-delivery-wins accumulator makes both reclaim and hedging safe:
// no index can be double-counted no matter how attempts overlap.
package dispatch

import (
	"context"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"optspeed/internal/admit"
	"optspeed/internal/sweep"
	"optspeed/internal/telemetry"
)

// Defaults for Options zero values.
const (
	// DefaultShardSize bounds one shard's spec count. Small enough that
	// a handful of peers all contribute to a mid-size sweep, large
	// enough that the per-shard HTTP round trip amortizes.
	DefaultShardSize = 512
	// DefaultMaxInFlightPerPeer bounds concurrent outstanding shards as
	// a multiple of the peer count.
	DefaultMaxInFlightPerPeer = 2
	// DefaultShardTimeout bounds one shard attempt end to end.
	DefaultShardTimeout = 2 * time.Minute
	// DefaultProbeTimeout bounds one health probe of a peer whose
	// breaker is closed (a healthy peer answers /healthz in
	// microseconds; 2s is generous).
	DefaultProbeTimeout = 2 * time.Second
	// DefaultProbeTimeoutDegraded bounds one health probe of a peer
	// whose breaker is open or half-open: the probe cadence follows the
	// breaker — a peer already known bad gets a short leash, so a
	// cluster-status read never stalls behind a black-holed peer.
	DefaultProbeTimeoutDegraded = 500 * time.Millisecond
)

// Request is the work one dispatch call evaluates — the same
// specs-or-space pair the jobs layer routes. Exactly one of the fields
// should be set; a Space keeps its Cartesian structure so shards stay
// sub-spaces. Size is MaxInt for an overflowing space, which the engine
// rejects downstream.
type Request = sweep.Batch

// ShardDone reports one shard's completion to the progress callback.
type ShardDone struct {
	// Shard is the shard's index in submission order.
	Shard int
	// Specs is the shard's spec count.
	Specs int
	// Peer is the base URL of the peer that completed the shard, or
	// "local" when the coordinator's own engine evaluated it.
	Peer string
	// Attempts counts peer attempts consumed, including the successful
	// one (0 when the shard went straight to the local engine).
	Attempts int
	// Retried reports that at least one peer attempt genuinely failed
	// while results were still missing — extra work was forced. Hedge
	// losers and reclaimed attempts don't count.
	Retried bool
	// Hedged reports that a second concurrent attempt was launched
	// because the first exceeded the latency budget.
	Hedged bool
	// Reclaims counts attempts cancelled mid-flight because their peer
	// turned suspect or left the roster.
	Reclaims int
}

// Opened is a started scatter–gather stream. Chunks delivers result
// chunks in deterministic spec order (globally ascending Result.Index),
// one per shard when the request was scattered; the consumer returns
// each chunk via Engine.Recycle. The channel closes when the sweep
// completes or the context dies — exactly the engine's own chunk-stream
// contract.
type Opened struct {
	Chunks <-chan *sweep.Chunk
	// Total is the spec count (the progress denominator).
	Total int
	// Shards is the planned shard count; 0 when the request ran on the
	// local fast path (no peers, or a request at most one shard long).
	Shards int
}

// Options configures a Dispatcher.
type Options struct {
	// Engine is the coordinator's local engine: the no-peer path, the
	// small-request fast path, and the per-shard fallback of last
	// resort. Required.
	Engine *sweep.Engine
	// Peers are the seed worker base URLs (scheme://host:port). The
	// roster is runtime-mutable afterwards via AddPeer/RemovePeer.
	// Empty means every request runs locally until a peer joins.
	Peers []string
	// ShardSize caps one shard's spec count; 0 means DefaultShardSize.
	ShardSize int
	// MaxInFlight bounds concurrently outstanding shards; 0 means
	// DefaultMaxInFlightPerPeer × the roster size at scatter time.
	MaxInFlight int
	// HTTPClient is the transport for peer calls; nil builds one with
	// sane connection pooling.
	HTTPClient *http.Client
	// Logger receives shard failure and fallback events; nil disables.
	Logger *slog.Logger
	// Breaker configures the per-peer circuit breakers (zero values
	// take the admit package defaults: 3 consecutive failures open,
	// 500ms cooldown doubling to 30s with ±20% jitter, single-probe
	// half-open).
	Breaker admit.BreakerConfig
	// Hedge tunes hedged shard requests (zero value: enabled with
	// defaults; Disable turns hedging off).
	Hedge HedgeConfig
}

// peerState is one peer's rolling health ledger, its circuit breaker,
// and its membership bookkeeping (see membership.go).
type peerState struct {
	url     string
	breaker *admit.Breaker

	mu          sync.Mutex
	shardsOK    int
	shardsErr   int
	lastErr     string
	lastErrAt   time.Time
	suspect     bool
	suspectAt   time.Time
	removed     bool
	inflight    map[uint64]*attemptHandle
	nextAttempt uint64
}

// ok records a successful attempt and clears any suspect strike.
func (p *peerState) ok() {
	p.mu.Lock()
	p.shardsOK++
	p.suspect = false
	p.mu.Unlock()
}

func (p *peerState) fail(err error, now time.Time) {
	p.mu.Lock()
	p.shardsErr++
	p.lastErr = err.Error()
	p.lastErrAt = now
	p.mu.Unlock()
}

// Dispatcher scatters sweeps across peers and gathers the results. It
// is safe for concurrent use; all calls share the peer ledger and the
// in-flight bound is per call, so the jobs store can run many
// distributed jobs at once.
type Dispatcher struct {
	engine      *sweep.Engine
	shardSize   int
	maxInFlight int // configured bound; 0 derives from roster size
	hc          *http.Client
	logger      *slog.Logger
	breakerCfg  admit.BreakerConfig

	hedgeOff  bool
	hedgeMult float64
	hedgeMin  time.Duration
	ewmaBits  atomic.Uint64 // float64 bits of the shard-time EWMA, seconds

	// pmu guards the mutable roster and the lazily bound metric
	// registry.
	pmu     sync.Mutex
	members []*peerState
	reg     *telemetry.Registry

	mu                sync.Mutex
	shardsPlanned     int
	shardsRetried     int
	shardsFallback    int
	hedgesLaunched    int
	hedgesWon         int
	attemptsReclaimed int
	membershipEvents  map[string]int
}

// New builds a dispatcher. A nil engine panics: the local fallback is
// what makes the layer total, so constructing a dispatcher without one
// is a programming error.
func New(opts Options) *Dispatcher {
	if opts.Engine == nil {
		panic("dispatch: Options.Engine is required")
	}
	shardSize := opts.ShardSize
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	hc := opts.HTTPClient
	if hc == nil {
		// The pool must hold the full in-flight shard fan-out per peer,
		// or concurrent scatters churn connections instead of reusing
		// them — on a busy coordinator that handshake tax dominates the
		// shard round trip.
		hc = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        0, // no global cap; the per-host cap governs
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	hedgeMult := opts.Hedge.Multiplier
	if hedgeMult <= 0 {
		hedgeMult = DefaultHedgeMultiplier
	}
	hedgeMin := opts.Hedge.Min
	if hedgeMin <= 0 {
		hedgeMin = DefaultHedgeMinDelay
	}
	d := &Dispatcher{
		engine:      opts.Engine,
		shardSize:   shardSize,
		maxInFlight: opts.MaxInFlight,
		hc:          hc,
		logger:      opts.Logger,
		breakerCfg:  opts.Breaker,
		hedgeOff:    opts.Hedge.Disable,
		hedgeMult:   hedgeMult,
		hedgeMin:    hedgeMin,
	}
	for _, u := range opts.Peers {
		url, err := normalizePeerURL(u)
		if err != nil {
			// Seed URLs come from a flag; a malformed one is kept
			// verbatim so the ledger and logs show it failing rather
			// than silently dropping a fleet member.
			url = u
		}
		if d.memberIndex(url) < 0 {
			d.members = append(d.members, d.newPeerState(url))
		}
	}
	return d
}

// newPeerState builds one peer's ledger entry and breaker, wiring the
// breaker's transitions into membership accounting: opening marks the
// peer down (and reclaims its outstanding attempts), a half-open →
// closed recovery re-admits it and clears its strike.
func (d *Dispatcher) newPeerState(url string) *peerState {
	p := &peerState{url: url}
	bc := d.breakerCfg
	userHook := bc.OnTransition
	bc.OnTransition = func(from, to admit.BreakerState, cooldown time.Duration) {
		switch {
		case to == admit.BreakerOpen:
			d.countMembership("down")
			if n := d.reclaimAttempts(p); n > 0 && d.logger != nil {
				d.logger.Warn("peer down, reclaiming attempts", "peer", url, "attempts", n)
			}
		case to == admit.BreakerClosed && from != admit.BreakerClosed:
			d.countMembership("readmitted")
			p.clearSuspect()
		}
		if d.logger != nil {
			d.logger.Warn("peer breaker transition",
				"peer", url, "from", string(from), "to", string(to), "cooldown", cooldown)
		}
		if userHook != nil {
			userHook(from, to, cooldown)
		}
	}
	p.breaker = admit.NewBreaker(bc)
	return p
}

// reclaimAttempts cancels every in-flight attempt against the peer,
// marking each as reclaimed so its shard reassigns immediately.
func (d *Dispatcher) reclaimAttempts(p *peerState) int {
	p.mu.Lock()
	handles := make([]*attemptHandle, 0, len(p.inflight))
	for _, h := range p.inflight {
		handles = append(handles, h)
	}
	p.mu.Unlock()
	for _, h := range handles {
		h.reclaimed.Store(true)
		h.cancel()
	}
	return len(handles)
}

// Engine returns the dispatcher's local engine.
func (d *Dispatcher) Engine() *sweep.Engine { return d.engine }

// Distributed reports whether any peers are currently in the roster.
func (d *Dispatcher) Distributed() bool {
	d.pmu.Lock()
	defer d.pmu.Unlock()
	return len(d.members) > 0
}

// ShardSize returns the configured shard size.
func (d *Dispatcher) ShardSize() int { return d.shardSize }

// shard is one unit of scatter work: a contiguous slice of the
// request's spec order, as a sub-space or an explicit spec list. The
// plan is the one source of which spec each shard-local index
// answers: work.At names it for peer results and fallbacks alike.
type shard struct {
	index int // position in submission order
	start int // global index of the shard's first spec
	size  int
	work  Request // a sub-space or a spec-list slice
}

// plan partitions the request into contiguous shards.
func (d *Dispatcher) plan(req Request) []shard {
	if req.Space != nil {
		planned := sweep.ShardSpace(*req.Space, d.shardSize)
		shards := make([]shard, len(planned))
		for i := range planned {
			sp := planned[i].Space
			shards[i] = shard{
				index: i,
				start: planned[i].Start,
				size:  sp.Size(),
				work:  Request{Space: &sp},
			}
		}
		return shards
	}
	var shards []shard
	for start := 0; start < len(req.Specs); start += d.shardSize {
		end := start + d.shardSize
		if end > len(req.Specs) {
			end = len(req.Specs)
		}
		shards = append(shards, shard{
			index: len(shards),
			start: start,
			size:  end - start,
			work:  Request{Specs: req.Specs[start:end]},
		})
	}
	return shards
}

// scatterWidth is the concurrent-shard bound for one scatter: the
// configured MaxInFlight, or the per-peer default scaled by the live
// roster size.
func (d *Dispatcher) scatterWidth() int {
	if d.maxInFlight > 0 {
		return d.maxInFlight
	}
	d.pmu.Lock()
	n := len(d.members)
	d.pmu.Unlock()
	width := DefaultMaxInFlightPerPeer * n
	if width < 1 {
		width = 1
	}
	return width
}

// Open starts the request's evaluation and returns its ordered chunk
// stream. Requests that fit in a single shard — and every request when
// the roster is empty — run on the local engine's own stream, untouched:
// byte-for-byte the single-node pipeline, with no shard plan. Larger
// requests are scattered, and each gathered shard is handed on as one
// chunk. onShard, when non-nil, is called once per completed shard
// (from the shard's own goroutine; implementations must be
// thread-safe).
func (d *Dispatcher) Open(ctx context.Context, req Request, onShard func(ShardDone)) (Opened, error) {
	var shards []shard
	if d.Distributed() && req.Size() > d.shardSize {
		shards = d.plan(req)
	}
	if len(shards) <= 1 {
		// Also an overflowing space, which plans no shards: the engine
		// rejects it.
		ch, total, err := d.engine.Open(ctx, req)
		return Opened{Chunks: ch, Total: total}, err
	}
	d.mu.Lock()
	d.shardsPlanned += len(shards)
	d.mu.Unlock()

	width := d.scatterWidth()
	out := make(chan *sweep.Chunk, width)
	gathered := make([]chan *sweep.Chunk, len(shards))
	for i := range gathered {
		gathered[i] = make(chan *sweep.Chunk, 1)
	}
	// Scatter: a bounded pool of shard runners claims shards in order.
	sem := make(chan struct{}, width)
	go func() {
		for i := range shards {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				// Wake the gatherer for every unstarted shard so it can
				// observe the dead context and drain out.
				for _, j := range shards[i:] {
					gathered[j.index] <- nil
				}
				return
			}
			go func(sh shard) {
				defer func() { <-sem }()
				gathered[sh.index] <- d.runShard(ctx, sh, onShard)
			}(shards[i])
		}
	}()
	// Gather: hand each shard's chunk on strictly in submission order,
	// so the merged stream is globally Index-ordered — the deterministic
	// spec order the single-node collectors produce.
	go func() {
		defer close(out)
		for i := range shards {
			var c *sweep.Chunk
			select {
			case c = <-gathered[i]:
			case <-ctx.Done():
				return
			}
			if c == nil {
				return // cancelled mid-shard
			}
			select {
			case out <- c:
			case <-ctx.Done():
				// The consumer is gone; hand the buffer straight back.
				d.engine.Recycle(c)
				return
			}
		}
	}()
	return Opened{Chunks: out, Total: req.Size(), Shards: len(shards)}, nil
}

// attemptOutcome is one shard attempt's terminal report back to its
// runShard loop.
type attemptOutcome struct {
	peer  *peerState
	h     *attemptHandle
	err   error
	dur   time.Duration
	hedge bool
}

// runShard drives one shard to completion. Peers are tried in
// rotation order (each at most once, preferring non-suspect members
// and skipping any whose breaker rejects the attempt); while an
// attempt is outstanding past the hedge budget, the shard is launched
// on a second peer and the loser is cancelled; when every peer has
// been consumed with results still missing, the local engine finishes
// the remainder. It returns the shard's results in local index order
// as one chunk, or nil if the context died first. Results accepted
// from a failed, reclaimed, or hedged-out attempt are kept — they are
// valid evaluations — and later deliveries of the same indices are
// dropped by the accumulator, so overlap costs nothing.
func (d *Dispatcher) runShard(ctx context.Context, sh shard, onShard func(ShardDone)) *sweep.Chunk {
	// The shard span nests under the job span when the submitting
	// request carried a trace; with tracing off StartSpan returns a nil
	// span and every call below is a no-op.
	ctx, span := telemetry.StartSpan(ctx, "shard")
	defer span.End()
	span.SetAttr("shard", strconv.Itoa(sh.index))
	span.SetAttr("specs", strconv.Itoa(sh.size))
	acc := newShardAccumulator(sh)

	tried := make(map[string]bool)
	// Buffered to the two-attempt bound: an attempt goroutine can
	// always deliver its outcome and exit, even if the loop already
	// returned on a dead context.
	outcomes := make(chan attemptOutcome, 2)
	var live []*attemptHandle
	inflight := 0
	attempts := 0
	hedges := 0
	reclaims := 0
	retried := false
	hedgeDeclined := false
	doneVia := "local"
	var lastGood *peerState

	launch := func(p *peerState, isHedge bool) {
		attempts++
		tried[p.url] = true
		actx, cancel := context.WithCancel(ctx)
		h := &attemptHandle{cancel: cancel}
		id := p.attach(h)
		live = append(live, h)
		inflight++
		go func() {
			start := time.Now()
			err := d.fetchShard(actx, p, sh, acc)
			p.detach(id)
			cancel()
			outcomes <- attemptOutcome{peer: p, h: h, err: err, dur: time.Since(start), hedge: isHedge}
		}()
	}
	dropLive := func(h *attemptHandle) {
		for i, x := range live {
			if x == h {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}
	// settleLoser resolves an attempt that was cancelled because the
	// other one won: no breaker verdict (the cancellation says nothing
	// about the peer), unless it had in fact already completed.
	settleLoser := func(o attemptOutcome) {
		if o.err == nil {
			o.peer.ok()
			o.peer.breaker.Success()
			d.observeAttempt(o.dur)
			return
		}
		o.peer.breaker.Abort()
	}

	for {
		if ctx.Err() != nil {
			for _, h := range live {
				h.cancel()
			}
			for inflight > 0 {
				o := <-outcomes
				inflight--
				// The parent died mid-attempt: the failure says nothing
				// about the peer's health, so free a half-open probe
				// slot instead of reopening the breaker.
				o.peer.breaker.Abort()
			}
			return nil
		}
		if inflight == 0 {
			if acc.missing() == 0 {
				break
			}
			p := d.nextPeer(sh.index, tried, true)
			if p == nil {
				break // roster exhausted: local fallback below
			}
			launch(p, false)
		}
		// Arm the hedge when exactly one attempt is outstanding, the
		// EWMA has a budget, and an untried candidate remains.
		var hedgeC <-chan time.Time
		var hedgeTimer *time.Timer
		if inflight == 1 && hedges == 0 && !hedgeDeclined {
			if delay, ok := d.hedgeDelay(); ok && d.nextPeer(sh.index, tried, false) != nil {
				hedgeTimer = time.NewTimer(delay)
				hedgeC = hedgeTimer.C
			}
		}
		select {
		case o := <-outcomes:
			if hedgeTimer != nil {
				hedgeTimer.Stop()
			}
			inflight--
			dropLive(o.h)
			switch {
			case o.err == nil:
				o.peer.ok()
				o.peer.breaker.Success()
				d.observeAttempt(o.dur)
				lastGood = o.peer
				if o.hedge {
					d.mu.Lock()
					d.hedgesWon++
					d.mu.Unlock()
				}
				// Cancel and settle the losing attempt, if any. The
				// drain must finish before the accumulator is read:
				// a loser may be mid-delivery into it.
				for _, h := range live {
					h.hedgedOut.Store(true)
					h.cancel()
				}
				for inflight > 0 {
					lo := <-outcomes
					inflight--
					settleLoser(lo)
				}
				live = nil
			case ctx.Err() != nil:
				o.peer.breaker.Abort()
				// Loop back to the dead-context exit above.
			case o.h.reclaimed.Load():
				// Cancelled because the peer turned suspect, went down,
				// or left the roster: not this shard's failure, and not
				// a breaker verdict — the transition that reclaimed it
				// already carried one.
				o.peer.breaker.Abort()
				reclaims++
				d.mu.Lock()
				d.attemptsReclaimed++
				d.mu.Unlock()
				if d.logger != nil {
					d.logger.Warn("shard attempt reclaimed",
						"shard", sh.index, "peer", o.peer.url, "missing", acc.missing())
				}
			case o.h.hedgedOut.Load():
				settleLoser(o)
			default:
				// A genuine attempt failure: ledger it, strike the
				// peer (reclaiming its other outstanding attempts),
				// and let the loop reassign.
				o.peer.fail(o.err, time.Now())
				d.markSuspect(o.peer)
				o.peer.breaker.Failure()
				if acc.missing() > 0 {
					retried = true
				}
				if d.logger != nil {
					d.logger.Warn("shard attempt failed",
						"shard", sh.index, "peer", o.peer.url, "attempt", attempts, "error", o.err)
				}
			}
		case <-hedgeC:
			if p := d.nextPeer(sh.index, tried, true); p != nil {
				launch(p, true)
				hedges++
				d.mu.Lock()
				d.hedgesLaunched++
				d.mu.Unlock()
				span.SetAttr("hedged", "true")
				if d.logger != nil {
					d.logger.Info("shard hedged", "shard", sh.index, "peer", p.url)
				}
			} else {
				// No candidate after all; don't rearm every loop turn.
				hedgeDeclined = true
			}
		}
		if inflight == 0 && acc.missing() == 0 {
			break
		}
	}

	if acc.missing() > 0 {
		// Every peer failed (or none could finish the shard): evaluate
		// the remainder locally. The whole shard is re-run for
		// simplicity; the accumulator keeps the first delivery of every
		// index, so already-gathered results stay as delivered.
		d.mu.Lock()
		d.shardsFallback++
		d.mu.Unlock()
		if d.logger != nil {
			d.logger.Warn("shard falling back to local engine",
				"shard", sh.index, "missing", acc.missing(), "attempts", attempts)
		}
		ch, _, err := d.engine.Open(ctx, sh.work)
		if err != nil {
			return nil // a planned shard never overflows
		}
		for c := range ch {
			for k := range c.Results {
				r := c.Results[k]
				local := r.Index
				r.Index += sh.start
				acc.accept(local, r)
			}
			d.engine.Recycle(c)
		}
		if ctx.Err() != nil {
			return nil // only the context cuts a local evaluation short
		}
		if attempts > 0 {
			retried = true
		}
	} else if lastGood != nil {
		doneVia = lastGood.url
	}
	if retried {
		d.mu.Lock()
		d.shardsRetried++
		d.mu.Unlock()
	}
	span.SetAttr("peer", doneVia)
	span.SetAttr("attempts", strconv.Itoa(attempts))
	if retried {
		span.SetAttr("retried", "true")
	}
	if onShard != nil {
		onShard(ShardDone{
			Shard:    sh.index,
			Specs:    sh.size,
			Peer:     doneVia,
			Attempts: attempts,
			Retried:  retried,
			Hedged:   hedges > 0,
			Reclaims: reclaims,
		})
	}
	return &sweep.Chunk{Results: acc.results}
}

// shardAccumulator collects one shard's results with first-delivery-
// wins dedupe on the shard-local index: duplicate deliveries — a peer
// re-sending lines, a reassigned shard re-streaming a prefix an
// earlier peer already delivered, or two hedged attempts overlapping —
// are dropped, never double-counted. Hedging makes it genuinely
// concurrent, so the mutex is load-bearing, not defensive.
type shardAccumulator struct {
	start   int
	mu      sync.Mutex
	results []sweep.Result
	seen    []bool
	left    int
}

func newShardAccumulator(sh shard) *shardAccumulator {
	return &shardAccumulator{
		start:   sh.start,
		results: make([]sweep.Result, sh.size),
		seen:    make([]bool, sh.size),
		left:    sh.size,
	}
}

// accept records one result at the shard-local index; out-of-range and
// duplicate indices are rejected.
func (a *shardAccumulator) accept(local int, r sweep.Result) bool {
	if local < 0 || local >= len(a.results) {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.seen[local] {
		return false
	}
	a.seen[local] = true
	a.results[local] = r
	a.left--
	return true
}

func (a *shardAccumulator) missing() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.left
}

// Stats is a snapshot of the dispatcher's shard counters.
type Stats struct {
	// ShardsPlanned counts shards handed to the scatter loop.
	ShardsPlanned int `json:"shards_planned"`
	// ShardsRetried counts shards where a genuine attempt failure
	// forced extra work.
	ShardsRetried int `json:"shards_retried"`
	// ShardsFallback counts shards the local engine finished after the
	// peers could not.
	ShardsFallback int `json:"shards_fallback"`
	// HedgesLaunched counts second attempts launched past the latency
	// budget; HedgesWon counts the ones that delivered first.
	HedgesLaunched int `json:"hedges_launched,omitempty"`
	HedgesWon      int `json:"hedges_won,omitempty"`
	// AttemptsReclaimed counts in-flight attempts cancelled because
	// their peer turned suspect, went down, or left the roster.
	AttemptsReclaimed int `json:"attempts_reclaimed,omitempty"`
}

// Stats returns a snapshot of the dispatcher's counters.
func (d *Dispatcher) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{
		ShardsPlanned:     d.shardsPlanned,
		ShardsRetried:     d.shardsRetried,
		ShardsFallback:    d.shardsFallback,
		HedgesLaunched:    d.hedgesLaunched,
		HedgesWon:         d.hedgesWon,
		AttemptsReclaimed: d.attemptsReclaimed,
	}
}

// Run evaluates the request to completion — on the local engine or
// across peers, as Open decides — and returns results in submission
// (Index) order, with Engine.Run's cancellation contract: on a dead
// context the unfinished entries carry ctx.Err().
func (d *Dispatcher) Run(ctx context.Context, req Request) ([]sweep.Result, error) {
	opened, err := d.Open(ctx, req, nil)
	if err != nil {
		return nil, err
	}
	return d.engine.Collect(ctx, opened.Chunks, req)
}
