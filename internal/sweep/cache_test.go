package sweep

import (
	"errors"
	"runtime"
	"testing"
)

// TestCacheHashCollision forces distinct keys onto one hash. The
// shard's index is keyed by the hash alone, so it must chain colliding
// entries and tell them apart by their full keys: on lookup, on
// eviction from the middle of a chain, and on removal of a failed
// computation.
func TestCacheHashCollision(t *testing.T) {
	const h = 0x5eed
	keys := []specKey{{n: 1}, {n: 2}, {n: 3}}
	value := func(i int) int { return 10 + i }
	get := func(s *cacheShard, hash uint64, k specKey, o outcome) (outcome, bool) {
		return s.getOrCompute(nil, hash, k, func() outcome { return o })
	}

	s := newCacheShard(3)
	for i, k := range keys {
		if _, hit := get(s, h, k, outcome{grid: value(i)}); hit {
			t.Fatalf("key %d: first lookup was a hit", i)
		}
	}
	if s.n != 3 || len(s.idx) != 1 {
		t.Fatalf("%d resident entries under %d hashes, want 3 under 1", s.n, len(s.idx))
	}
	for i, k := range keys {
		if out, hit := get(s, h, k, outcome{grid: -1}); !hit || out.grid != value(i) {
			t.Fatalf("key %d: got grid %d hit=%t, want its own grid %d from the cache", i, out.grid, hit, value(i))
		}
	}

	// The chain is keys[2] → keys[1] → keys[0]. Touch keys[0] so the
	// middle entry is least recently used, then evict it with an
	// insert under another hash.
	s.peek(nil, h, keys[0])
	get(s, h+1, specKey{n: 4}, outcome{grid: 4})
	if _, ok := s.peek(nil, h, keys[1]); ok {
		t.Fatal("evicted key still found")
	}
	for _, i := range []int{0, 2} {
		if out, ok := s.peek(nil, h, keys[i]); !ok || out.grid != value(i) {
			t.Fatalf("key %d after its neighbour's eviction: grid %d ok=%t, want %d", i, out.grid, ok, value(i))
		}
	}

	// While keys[0] is in flight, keys[1] fails under the same hash
	// and is dropped, and keys[0] stays resident; then keys[0] fails
	// too, which must leave the shard empty.
	s = newCacheShard(2)
	boom := errors.New("boom")
	out, _ := s.getOrCompute(nil, h, keys[0], func() outcome {
		if out, hit := get(s, h, keys[1], outcome{err: boom}); out.err != boom || hit {
			t.Errorf("colliding failure: got %+v hit=%t", out, hit)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.find(h, keys[1]) != nil {
			t.Error("failed outcome was cached")
		}
		if s.find(h, keys[0]) == nil {
			t.Error("in-flight key lost when a colliding key failed")
		}
		return outcome{err: boom}
	})
	if out.err != boom {
		t.Fatalf("got %+v, want the computation's error", out)
	}
	if s.n != 0 || len(s.idx) != 0 || s.head != nil || s.tail != nil {
		t.Fatalf("shard not empty after both keys failed: n=%d idx=%d", s.n, len(s.idx))
	}
}

// TestCacheMissAllocBudget pins the getOrCompute path's allocations. A
// cold miss on a full cache, which inserts one entry and evicts
// another, allocates the entry and nothing else: no wait channel, since
// nobody waits on it, and no index growth once the cache is full. A hit
// allocates nothing.
func TestCacheMissAllocBudget(t *testing.T) {
	c := newCache(1024)
	fn := func() outcome { return outcome{value: 1} }
	var next int64
	miss := func() {
		next++
		c.getOrCompute(nil, specKey{n: next}, fn)
	}
	for i := 0; i < 4096; i++ {
		miss()
	}
	if got := testing.AllocsPerRun(2000, miss); got != 1 {
		t.Errorf("a cold miss on a full cache allocates %.3f objects, want exactly 1 (the entry)", got)
	}
	hot := specKey{n: next}
	if got := testing.AllocsPerRun(2000, func() { c.getOrCompute(nil, hot, fn) }); got != 0 {
		t.Errorf("a cache hit allocates %.3f objects, want 0", got)
	}
}

// TestCacheEntryFootprint pins the heap a resident entry costs, index
// slot included, on a DefaultCacheSize cache filled past capacity the
// way a long run of cold sweeps fills it. The figure sets the retained
// heap of a serving process with a full cache (docs/performance.md,
// "Cold path: the cache miss and its footprint").
func TestCacheEntryFootprint(t *testing.T) {
	fn := func() outcome { return outcome{value: 1} }
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := newCache(DefaultCacheSize)
	for i := 0; i < 2*DefaultCacheSize; i++ {
		c.getOrCompute(nil, specKey{op: 1, n: int64(i), mach: machKey{tflp: 1}}, fn)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	resident := c.len()
	runtime.KeepAlive(c)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(resident)
	t.Logf("%d resident entries, %.0f B of heap each", resident, per)
	if per > 400 {
		t.Errorf("a resident cache entry costs %.0f B of heap, budget is 400", per)
	}
}
