package sweep

import (
	"errors"
	"math"
	"sync"
	"unsafe"

	"optspeed/internal/core"
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
// the shard's index key. Every lookup is a claim: a settled entry is a
// hit, an entry in flight is awaited, and an absent key becomes a
// pending entry that the claimant computes and finishes, so identical
// concurrent requests (a single spec, or a member of a batched procs
// group, alike) compute a key once. Failed computations are not
// retained, so a transient error never poisons the cache.
type cache struct {
	shards []*cacheShard
}

// pageLen is the number of entries in one slab page: as many as fill
// an 8 KB allocation (35 at 232 B an entry), so the allocator's size
// classes waste next to nothing. Pages are allocated as a shard fills,
// so a sparsely used shard holds one 8 KB page.
const pageLen = 8192 / int32(unsafe.Sizeof(centry{}))

// nilSlot is the null slot number: the end of a list or hash chain.
const nilSlot int32 = -1

// cacheShard is one independently locked LRU whose entries live in a
// paged slab and are addressed by int32 slot numbers. Every resident
// entry is pointer-free (TestCacheEntryHoldsNoPointers), and so is the
// index, so the garbage collector never scans the cache however large
// it grows. The LRU links (centry.prev/next), the hash chains
// (centry.same) and the free list (through centry.next) are slot
// numbers. idx maps a key hash to the first slot with that hash; a
// lookup compares the full key along the chain, so a hash collision
// costs a longer walk, never a wrong answer. Keying the map by the
// 8-byte hash instead of the 112-byte specKey keeps its slots small and
// spares it re-hashing nine float fields on every lookup, insert and
// eviction.
//
// Once the shard is full, an insert evicts the least recently used
// settled entry and reuses its slot in place, so a cold miss allocates
// nothing. In-flight entries are pinned: eviction steps over them, so
// their slot numbers stay theirs until their owner finishes them, and a
// shard whose every entry is in flight briefly exceeds its capacity.
// A goroutine that has to wait on an in-flight entry gets a waiter
// record from the waiters side map, made on that first demand.
type cacheShard struct {
	mu      sync.Mutex
	cap     int
	n       int   // resident entries
	head    int32 // most recently used
	tail    int32 // least recently used
	free    int32 // first slot of the free list
	slots   int32 // slots handed out of the slab so far
	pages   []*[pageLen]centry
	idx     map[uint64]int32
	waiters map[int32]*waiter // in-flight slot → its waiters' record
}

// centry is one slab slot. A pending entry is in flight: its owner is
// computing it and nums is not yet meaningful. The owner finishes it
// under the shard lock, either storing the answer or, on an error,
// removing the entry. prev/next are the shard's LRU links and same is
// its hash chain, all owned by the shard lock.
type centry struct {
	key        specKey
	h          uint64 // key.hash(), the entry's idx key
	nums       numbers
	prev, next int32
	same       int32 // next slot with the same hash
	pending    bool
}

// numbers is the cached, pointer-free part of an Answer: its payload.
// Index and CacheHit belong to the slot a lookup fills, and failures
// are never cached, so Err (an interface) stays out of the slab.
type numbers struct {
	alloc  Alloc
	scaled core.ScaledPoint
	value  float64
	grid   int
}

// store keeps the payload of a successful answer.
func (n *numbers) store(a *Answer) {
	*n = numbers{alloc: a.Alloc, scaled: a.Scaled, value: a.Value, grid: a.Grid}
}

// load overwrites a with the kept payload, keeping a's Index.
func (n *numbers) load(a *Answer) {
	*a = Answer{Index: a.Index, Alloc: n.alloc, Scaled: n.scaled, Value: n.value, Grid: n.grid}
}

// waiter is the rendezvous for the goroutines waiting on one in-flight
// entry: the owner stores a copy of its answer in out (its own may sit
// in a chunk that is recycled), then closes done.
type waiter struct {
	done chan struct{}
	out  Answer
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
	// Slot numbers are int32; leave head-room for in-flight entries
	// past capacity.
	per = max(min(per, math.MaxInt32/2), 1)
	// The slabs and index maps start empty and grow with residency, so
	// a small sweep does not pay for storage sized to the configured
	// capacity.
	for i := range c.shards {
		c.shards[i] = newCacheShard(per)
	}
	return c
}

func newCacheShard(capacity int) *cacheShard {
	return &cacheShard{
		cap: capacity, head: nilSlot, tail: nilSlot, free: nilSlot,
		idx: make(map[uint64]int32),
	}
}

// --- slab, LRU and hash-chain plumbing (all under the shard lock) ---

// entry returns the entry in slot i.
func (s *cacheShard) entry(i int32) *centry {
	return &s.pages[i/pageLen][i%pageLen]
}

// alloc hands out a slot: a freed one if any, else the next unused
// slot of the slab, adding a page when the last one is full.
func (s *cacheShard) alloc() int32 {
	if i := s.free; i != nilSlot {
		s.free = s.entry(i).next
		return i
	}
	i := s.slots
	if i%pageLen == 0 {
		s.pages = append(s.pages, new([pageLen]centry))
	}
	s.slots++
	return i
}

// pushFront links slot i as most recently used.
func (s *cacheShard) pushFront(i int32) {
	e := s.entry(i)
	e.prev, e.next = nilSlot, s.head
	if s.head != nilSlot {
		s.entry(s.head).prev = i
	}
	s.head = i
	if s.tail == nilSlot {
		s.tail = i
	}
	s.n++
}

// unlink removes slot i from the LRU list without touching the index.
func (s *cacheShard) unlink(i int32) {
	e := s.entry(i)
	if e.prev != nilSlot {
		s.entry(e.prev).next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nilSlot {
		s.entry(e.next).prev = e.prev
	} else {
		s.tail = e.prev
	}
	s.n--
}

// moveToFront marks slot i most recently used.
func (s *cacheShard) moveToFront(i int32) {
	if s.head == i {
		return
	}
	s.unlink(i)
	s.pushFront(i)
}

// chain returns the first slot of the hash chain for h, or nilSlot.
func (s *cacheShard) chain(h uint64) int32 {
	if i, ok := s.idx[h]; ok {
		return i
	}
	return nilSlot
}

// find returns the slot of the resident entry for key, or nilSlot.
func (s *cacheShard) find(h uint64, key specKey) int32 {
	for i := s.chain(h); i != nilSlot; i = s.entry(i).same {
		if s.entry(i).key == key {
			return i
		}
	}
	return nilSlot
}

// insert makes key resident, pending and most recently used, and
// returns its slot. A full shard first evicts its least recently used
// settled entry, whose slot the new entry then takes. The caller has
// checked that key is absent.
func (s *cacheShard) insert(h uint64, key specKey) int32 {
	s.trim(s.cap - 1)
	i := s.alloc()
	*s.entry(i) = centry{key: key, h: h, same: s.chain(h), pending: true}
	s.idx[h] = i
	s.pushFront(i)
	return i
}

// remove drops slot i from the LRU list and its hash chain and frees
// the slot.
func (s *cacheShard) remove(i int32) {
	s.unlink(i)
	e := s.entry(i)
	if p := s.idx[e.h]; p == i {
		if e.same == nilSlot {
			delete(s.idx, e.h)
		} else {
			s.idx[e.h] = e.same
		}
	} else {
		for s.entry(p).same != i {
			p = s.entry(p).same
		}
		s.entry(p).same = e.same
	}
	e.next, s.free = s.free, i
}

// trim evicts least recently used settled entries until at most limit
// remain, stepping over pinned in-flight entries.
func (s *cacheShard) trim(limit int) {
	for i := s.tail; s.n > limit && i != nilSlot; {
		prev := s.entry(i).prev
		if !s.entry(i).pending {
			s.remove(i)
		}
		i = prev
	}
}

// lookup finds key's resident entry and marks it most recently used. A
// settled entry is loaded into a at once; an in-flight one comes back
// as the waiter record to block on, made on this first demand.
func (s *cacheShard) lookup(h uint64, key specKey, a *Answer) (w *waiter, found bool) {
	i := s.find(h, key)
	if i == nilSlot {
		return nil, false
	}
	s.moveToFront(i)
	if e := s.entry(i); !e.pending {
		e.nums.load(a)
		return nil, true
	}
	if w = s.waiters[i]; w == nil {
		if s.waiters == nil {
			s.waiters = make(map[int32]*waiter)
		}
		w = &waiter{done: make(chan struct{})}
		s.waiters[i] = w
	}
	return w, true
}

// await overwrites a with the answer w's owner finishes with, keeping
// a's Index, and reports true; or, if cancel closes first, with
// ErrWaitCancelled, and reports false. Called without the lock: w.out
// is immutable once done is closed.
func await(cancel <-chan struct{}, w *waiter, a *Answer) bool {
	i := a.Index
	select {
	case <-w.done:
		*a = w.out
		a.Index = i
		return true
	case <-cancel:
		*a = Answer{Index: i, Err: ErrWaitCancelled}
		return false
	}
}

// ticket is what a claim leaves its claimant: a pending entry to
// finish (slot), or an entry in flight elsewhere to await (w). A
// ticket with neither was a hit.
type ticket struct {
	s    *cacheShard
	slot int32
	w    *waiter
}

// owned reports whether the claimant owns a pending entry it must
// finish.
func (t *ticket) owned() bool { return t.slot != nilSlot }

// claim looks key up and marks it most recently used. A settled entry
// is loaded into a at once, keeping a's Index. An entry in flight
// elsewhere comes back as the waiter to await. An absent key becomes a
// pending entry that the caller owns and must finish, whatever happens:
// until then, every claimant of the key waits on it.
func (c *cache) claim(key specKey, a *Answer) ticket {
	h := key.hash()
	return c.shardFor(h).claim(h, key, a)
}

// shardFor picks the shard for a key hash from its high 32 bits. The
// hash is FNV-1a, whose multiply carries bits only upward: its low bits
// depend only on the low bits of each field, which many keys share
// (n and procs that are multiples of 16, floats with zero low mantissa
// bits, the enums packed above bit 8), so h%16 would crowd them into a
// few shards. The high bits depend on every bit of every field.
func (c *cache) shardFor(h uint64) *cacheShard {
	return c.shards[(h>>32)%uint64(len(c.shards))]
}

func (s *cacheShard) claim(h uint64, key specKey, a *Answer) ticket {
	t := ticket{s: s, slot: nilSlot}
	s.mu.Lock()
	w, found := s.lookup(h, key, a)
	if found {
		t.w = w
	} else {
		t.slot = s.insert(h, key)
	}
	s.mu.Unlock()
	return t
}

// finish completes an owned pending entry with its answer a: waiters
// receive a copy of it, error included; a success is kept, and a
// failure (ErrWaitCancelled too, from a claimant whose context died
// first) removes the entry. The slot is still the owner's: in-flight
// entries are never evicted.
func (t *ticket) finish(a *Answer) {
	s, i := t.s, t.slot
	s.mu.Lock()
	if w := s.waiters[i]; w != nil {
		w.out = *a
		close(w.done)
		delete(s.waiters, i)
	}
	if a.Err != nil {
		s.remove(i)
	} else {
		e := s.entry(i)
		e.nums.store(a)
		e.pending = false
		// The shard may have grown past capacity while this entry was
		// pinned.
		s.trim(s.cap)
	}
	s.mu.Unlock()
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
