package sweep

import (
	"errors"
	"sync"
)

// ErrWaitCancelled reports that a caller coalesced onto another
// goroutine's in-flight computation and its context was cancelled before
// that computation finished. The underlying computation continues and
// will still fill the cache for future requests.
var ErrWaitCancelled = errors.New("sweep: cancelled while waiting for an in-flight result")

// maxCacheShards bounds the shard count; small caches use fewer shards
// so the configured capacity stays exact.
const maxCacheShards = 16

// cache is a sharded, bounded LRU memoization table with in-flight
// coalescing. A lookup hashes its key once (specKey.hash); the hash
// picks one of up to maxCacheShards independent shards, so concurrent
// lookups from the worker pool contend only per-shard, and it is also
// the shard's index key. Within a shard, the first goroutine to
// request a key via getOrCompute computes it while later requesters
// for the same key block on the entry instead of recomputing (the
// request-coalescing behavior the HTTP service relies on when
// identical per-spec sweeps arrive concurrently). The batched speedup
// path uses peek/putBatch instead and trades that per-key coalescing
// for whole-group batching: concurrent identical cold batched sweeps
// may duplicate a group computation (the first insert wins), but
// completed entries still serve everyone afterwards. Failed
// computations are not retained, so a transient error never poisons
// the cache.
type cache struct {
	shards []*cacheShard
}

// cacheShard is one independently locked LRU over intrusively linked
// entries: the list pointers live inside centry, so inserting an entry
// costs no container node beyond the entry itself, and a batch insert
// of n entries costs one []centry slab. idx maps a key hash to the
// entries with that hash, chained through centry.same; a lookup
// compares the full key along the chain, so a hash collision costs a
// longer walk, never a wrong answer. Keying the map by the 8-byte hash
// instead of the 112-byte specKey keeps its slots small and spares it
// re-hashing nine float fields on every lookup, insert and eviction.
type cacheShard struct {
	mu   sync.Mutex
	cap  int
	n    int     // resident entries
	head *centry // most recently used
	tail *centry // least recently used
	idx  map[uint64]*centry
}

// centry is one cache slot. ready is set, together with out, under the
// shard lock once the computation finishes; entries inserted complete
// (putBatch) are ready from the start. done is made only when a second
// goroutine has to wait on an in-flight entry, and closed when it
// becomes ready, so an uncontended miss costs no channel. Waiters hold
// the pointer, so eviction never races a fill. prev/next are the
// shard's intrusive LRU links and same is its hash chain, all owned by
// the shard lock; an evicted entry's links are cleared but the entry
// stays valid for any waiter still holding it. Entries inserted by
// putBatch live in a shared slab ([]centry), so an evicted slab member
// keeps its slab reachable until every member is gone — acceptable,
// because a batch's members enter together and age out of the LRU
// together.
type centry struct {
	key        specKey
	h          uint64 // key.hash(), the entry's idx key
	done       chan struct{}
	ready      bool
	out        outcome
	prev, next *centry
	same       *centry // next entry with the same hash
}

func newCache(capacity int) *cache {
	n := maxCacheShards
	if capacity < n {
		n = capacity
	}
	if n < 1 {
		n = 1
	}
	c := &cache{shards: make([]*cacheShard, n)}
	// Hashing spreads keys only approximately evenly, so each shard
	// carries 1/8 slack over its fair share: a sweep of exactly the
	// configured capacity stays resident even with the statistical
	// imbalance of a binomial split (the slack covers many standard
	// deviations at any realistic capacity). Total capacity may
	// therefore slightly exceed the configured value.
	per := (capacity + n - 1) / n
	if n > 1 {
		per += per / 8
	}
	if per < 1 {
		per = 1
	}
	// The index maps start empty and grow with residency, so a small
	// sweep does not pay for buckets sized to the configured capacity.
	for i := range c.shards {
		c.shards[i] = newCacheShard(per)
	}
	return c
}

func newCacheShard(capacity int) *cacheShard {
	return &cacheShard{cap: capacity, idx: make(map[uint64]*centry)}
}

// --- intrusive LRU and hash-chain plumbing (all under the shard lock) ---

// pushFront links a fresh entry as most recently used.
func (s *cacheShard) pushFront(e *centry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
	s.n++
}

// unlink removes an entry from the LRU list without touching the index.
func (s *cacheShard) unlink(e *centry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
	s.n--
}

// moveToFront marks an entry most recently used.
func (s *cacheShard) moveToFront(e *centry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// find returns the resident entry for key, or nil.
func (s *cacheShard) find(h uint64, key specKey) *centry {
	for e := s.idx[h]; e != nil; e = e.same {
		if e.key == key {
			return e
		}
	}
	return nil
}

// insert makes a fresh entry resident and most recently used, then
// evicts down to capacity. The caller has checked that key is absent.
func (s *cacheShard) insert(e *centry) {
	e.same = s.idx[e.h]
	s.idx[e.h] = e
	s.pushFront(e)
	s.evictOver()
}

// remove drops a resident entry from the LRU list and its hash chain.
func (s *cacheShard) remove(e *centry) {
	s.unlink(e)
	if p := s.idx[e.h]; p == e {
		if e.same == nil {
			delete(s.idx, e.h)
		} else {
			s.idx[e.h] = e.same
		}
	} else {
		for p.same != e {
			p = p.same
		}
		p.same = e.same
	}
	e.same = nil
}

// evictOver drops least-recently-used entries until the shard is within
// capacity.
func (s *cacheShard) evictOver() {
	for s.n > s.cap {
		s.remove(s.tail)
	}
}

// lookup returns key's resident entry, marked most recently used,
// together with the channel to wait on before reading its outcome: nil
// when the entry is ready, otherwise its done channel, made on this
// first demand. A nil entry means a miss.
func (s *cacheShard) lookup(h uint64, key specKey) (*centry, chan struct{}) {
	e := s.find(h, key)
	if e == nil {
		return nil, nil
	}
	s.moveToFront(e)
	if e.ready {
		return e, nil
	}
	if e.done == nil {
		e.done = make(chan struct{})
	}
	return e, e.done
}

// await returns e's outcome once done (nil for a ready entry) closes,
// or ErrWaitCancelled if cancel closes first. Called without the lock:
// out is immutable once the entry is ready.
func await(cancel <-chan struct{}, e *centry, done chan struct{}) outcome {
	if done != nil {
		select {
		case <-done:
		case <-cancel:
			return outcome{err: ErrWaitCancelled}
		}
	}
	return e.out
}

// getOrCompute returns the outcome for key, computing it with fn on a
// miss. The bool reports whether the value came from the cache — either
// an already-complete entry (a hit) or an in-flight computation by
// another goroutine (coalesced); both avoid recomputation. A waiter
// whose cancel channel closes before the in-flight computation finishes
// gets ErrWaitCancelled instead of blocking past its context; fn itself
// must not block on cancel (it is pure model evaluation).
func (c *cache) getOrCompute(cancel <-chan struct{}, key specKey, fn func() outcome) (outcome, bool) {
	h := key.hash()
	return c.shardFor(h).getOrCompute(cancel, h, key, fn)
}

// shardFor picks the shard for a key hash.
func (c *cache) shardFor(h uint64) *cacheShard {
	return c.shards[h%uint64(len(c.shards))]
}

func (s *cacheShard) getOrCompute(cancel <-chan struct{}, h uint64, key specKey, fn func() outcome) (outcome, bool) {
	s.mu.Lock()
	if e, done := s.lookup(h, key); e != nil {
		s.mu.Unlock()
		// A failed computation is never "served from the cache":
		// waiters that coalesced onto it get the error without the
		// hit flag (the entry itself is removed below).
		out := await(cancel, e, done)
		return out, out.err == nil
	}
	e := &centry{key: key, h: h}
	s.insert(e)
	s.mu.Unlock()

	out := fn()
	s.mu.Lock()
	e.out, e.ready = out, true
	if e.done != nil {
		close(e.done)
	}
	// The entry may already have been evicted; only remove it if it is
	// still the resident entry for its key.
	if out.err != nil && s.find(h, key) == e {
		s.remove(e)
	}
	s.mu.Unlock()
	return out, false
}

// peek returns the outcome for key without inserting anything on a
// miss: the batched evaluation path probes its whole group first and
// computes only the absentees in one pass. A resident in-flight entry
// is waited on exactly like a getOrCompute hit (the waiter coalesces),
// so peek honors cancel the same way. The bool reports residency.
func (c *cache) peek(cancel <-chan struct{}, key specKey) (outcome, bool) {
	h := key.hash()
	return c.shardFor(h).peek(cancel, h, key)
}

func (s *cacheShard) peek(cancel <-chan struct{}, h uint64, key specKey) (outcome, bool) {
	s.mu.Lock()
	e, done := s.lookup(h, key)
	s.mu.Unlock()
	if e == nil {
		return outcome{}, false
	}
	return await(cancel, e, done), true
}

// putBatch inserts the successful members of one batched group in a
// single slab: one []centry allocation covers every inserted entry, and
// entries inserted complete need no done channel, so a 64-member procs
// group costs one allocation instead of one per member. keys and outs
// are parallel. Errored outcomes are skipped, so failures are never
// cached, and an existing resident entry wins: it may have waiters.
func (c *cache) putBatch(keys []specKey, outs []outcome) {
	n := 0
	for _, o := range outs {
		if o.err == nil {
			n++
		}
	}
	if n == 0 {
		return
	}
	slab := make([]centry, 0, n)
	for i, o := range outs {
		if o.err != nil {
			continue
		}
		h := keys[i].hash()
		slab = append(slab, centry{key: keys[i], h: h, ready: true, out: o})
		s := c.shardFor(h)
		s.mu.Lock()
		if s.find(h, keys[i]) == nil {
			s.insert(&slab[len(slab)-1])
		}
		s.mu.Unlock()
	}
}

// len returns the number of resident entries across all shards.
func (c *cache) len() int {
	total := 0
	for _, s := range c.shards {
		s.mu.Lock()
		total += s.n
		s.mu.Unlock()
	}
	return total
}
