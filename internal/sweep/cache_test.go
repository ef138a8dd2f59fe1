package sweep

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"optspeed/internal/core"
)

// claimOrCompute answers k from shard s as a unit does: it claims k and,
// owning it, computes it with fn (into a, reset) and finishes it. It
// reports whether the cache answered, a hit or an awaited success.
func claimOrCompute(s *cacheShard, h uint64, k specKey, a *Answer, fn func(*Answer)) bool {
	t := s.claim(h, k, a)
	switch {
	case t.owned():
		*a = Answer{Index: a.Index}
		fn(a)
		t.finish(a)
		return false
	case t.w != nil:
		await(nil, t.w, a)
		return a.Err == nil
	}
	return true
}

// cachedOrCompute is claimOrCompute on the cache's shard for k.
func cachedOrCompute(c *cache, k specKey, a *Answer, fn func(*Answer)) bool {
	h := k.hash()
	return claimOrCompute(c.shardFor(h), h, k, a, fn)
}

// peek looks k up in shard s without claiming it, awaiting an entry in
// flight; it reports residency.
func peek(s *cacheShard, h uint64, k specKey, a *Answer) bool {
	s.mu.Lock()
	w, ok := s.lookup(h, k, a)
	s.mu.Unlock()
	if w != nil {
		await(nil, w, a)
	}
	return ok
}

// TestCacheHashCollision forces distinct keys onto one hash. The
// shard's index is keyed by the hash alone, so it must chain colliding
// slots and tell them apart by their full keys: on lookup, on eviction
// from the middle of a chain (whose slot the next insert reuses), and on
// removal of a failed computation.
func TestCacheHashCollision(t *testing.T) {
	const h = 0x5eed
	keys := []specKey{{n: 1}, {n: 2}, {n: 3}}
	value := func(i int) int { return 10 + i }
	get := func(s *cacheShard, hash uint64, k specKey, o Answer) (Answer, bool) {
		var out Answer
		hit := claimOrCompute(s, hash, k, &out, func(a *Answer) { *a = o })
		return out, hit
	}
	look := func(s *cacheShard, hash uint64, k specKey) (Answer, bool) {
		var out Answer
		ok := peek(s, hash, k, &out)
		return out, ok
	}

	s := newCacheShard(3)
	for i, k := range keys {
		if _, hit := get(s, h, k, Answer{Grid: value(i)}); hit {
			t.Fatalf("key %d: first lookup was a hit", i)
		}
	}
	if s.n != 3 || len(s.idx) != 1 {
		t.Fatalf("%d resident entries under %d hashes, want 3 under 1", s.n, len(s.idx))
	}
	// The chain runs from the newest slot to the oldest: 2 → 1 → 0.
	slot := make([]int32, len(keys))
	for i, k := range keys {
		slot[i] = s.find(h, k)
	}
	if s.idx[h] != slot[2] || s.entry(slot[2]).same != slot[1] ||
		s.entry(slot[1]).same != slot[0] || s.entry(slot[0]).same != nilSlot {
		t.Fatalf("hash chain from %d: slots %v, want newest first", s.idx[h], slot)
	}
	for i, k := range keys {
		if out, hit := get(s, h, k, Answer{Grid: -1}); !hit || out.Grid != value(i) {
			t.Fatalf("key %d: got grid %d hit=%t, want its own grid %d from the cache", i, out.Grid, hit, value(i))
		}
	}

	// Touch keys[0] so the middle entry is least recently used, then
	// evict it with an insert under another hash, which takes its slot.
	look(s, h, keys[0])
	other := specKey{n: 4}
	get(s, h+1, other, Answer{Grid: 4})
	if _, ok := look(s, h, keys[1]); ok {
		t.Fatal("evicted key still found")
	}
	if got := s.find(h+1, other); got != slot[1] {
		t.Fatalf("the insert took slot %d, want the evicted slot %d", got, slot[1])
	}
	if s.idx[h] != slot[2] || s.entry(slot[2]).same != slot[0] || s.entry(slot[0]).same != nilSlot {
		t.Fatal("eviction from the middle of the chain did not splice it")
	}
	for _, i := range []int{0, 2} {
		if out, ok := look(s, h, keys[i]); !ok || out.Grid != value(i) {
			t.Fatalf("key %d after its neighbour's eviction: grid %d ok=%t, want %d", i, out.Grid, ok, value(i))
		}
	}

	// While keys[0] is in flight, keys[1] fails under the same hash
	// and is dropped, and keys[0] stays resident; then keys[0] fails
	// too, which must leave the shard empty with both slots free.
	s = newCacheShard(2)
	boom := errors.New("boom")
	var out Answer
	claimOrCompute(s, h, keys[0], &out, func(a *Answer) {
		if out, hit := get(s, h, keys[1], Answer{Err: boom}); out.Err != boom || hit {
			t.Errorf("colliding failure: got %+v hit=%t", out, hit)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.find(h, keys[1]) != nilSlot {
			t.Error("failed answer was cached")
		}
		if s.find(h, keys[0]) == nilSlot {
			t.Error("in-flight key lost when a colliding key failed")
		}
		a.Err = boom
	})
	if out.Err != boom {
		t.Fatalf("got %+v, want the computation's error", out)
	}
	if s.n != 0 || len(s.idx) != 0 || s.head != nilSlot || s.tail != nilSlot {
		t.Fatalf("shard not empty after both keys failed: n=%d idx=%d", s.n, len(s.idx))
	}
	free := 0
	for i := s.free; i != nilSlot; i = s.entry(i).next {
		free++
	}
	if free != int(s.slots) || free != 2 {
		t.Fatalf("%d free slots of %d handed out, want 2 of 2", free, s.slots)
	}
}

// TestCachePendingEntryPinned fills a one-slot shard with an in-flight
// entry. Claims past it must neither evict it nor reuse its slot, its
// waiter must receive a copy of the owner's answer as it is, error
// included, in its own slot (keeping its Index), an error must not be
// cached, and once the entry is finished the shard must shrink back to
// its capacity.
func TestCachePendingEntryPinned(t *testing.T) {
	const h = 0x5eed
	pendKey, other, third := specKey{n: 1}, specKey{n: 2}, specKey{n: 3}
	type got struct {
		out Answer
		hit bool
	}
	for _, fail := range []bool{false, true} {
		want := Answer{Grid: 7}
		if fail {
			want = Answer{Err: errors.New("boom")}
		}
		s := newCacheShard(1)
		started, release := make(chan struct{}), make(chan struct{})
		owner, waiter := make(chan got, 1), make(chan got, 1)
		go func() {
			out := Answer{Index: 1}
			hit := claimOrCompute(s, h, pendKey, &out, func(a *Answer) {
				close(started)
				<-release
				a.Grid, a.Err = want.Grid, want.Err
			})
			owner <- got{out, hit}
		}()
		<-started

		s.mu.Lock()
		pend := s.find(h, pendKey)
		s.mu.Unlock()
		// Claims past capacity neither evict the pinned entry nor take
		// its slot: other is evicted as soon as it settles, and third,
		// still pending, takes a slot of its own.
		claimOrCompute(s, h+1, other, &Answer{}, func(a *Answer) { a.Grid = 2 })
		t3 := s.claim(h+2, third, &Answer{})
		s.mu.Lock()
		if s.find(h, pendKey) != pend || !s.entry(pend).pending || s.tail != pend {
			t.Fatalf("fail=%t: the in-flight entry was evicted or moved", fail)
		}
		if i := s.find(h+2, third); i == pend || s.find(h+1, other) != nilSlot || s.n != 2 {
			t.Fatalf("fail=%t: n=%d, third in slot %d (pinned %d); want the settled entry evicted, not the pinned one",
				fail, s.n, i, pend)
		}
		s.mu.Unlock()
		t3.finish(&Answer{Grid: 3})

		go func() {
			out := Answer{Index: 2}
			hit := claimOrCompute(s, h, pendKey, &out, func(*Answer) {
				t.Error("a waiter recomputed an in-flight key")
			})
			waiter <- got{out, hit}
		}()
		for registered := false; !registered; {
			s.mu.Lock()
			registered = s.waiters[pend] != nil
			s.mu.Unlock()
			runtime.Gosched()
		}
		close(release)
		o, w := <-owner, <-waiter
		if o.hit || o.out.Grid != want.Grid || o.out.Err != want.Err || o.out.Index != 1 {
			t.Fatalf("fail=%t: owner got %+v hit=%t, want %+v", fail, o.out, o.hit, want)
		}
		if w.hit == fail || w.out.Grid != want.Grid || w.out.Err != want.Err || w.out.Index != 2 {
			t.Fatalf("fail=%t: waiter got %+v hit=%t, want the owner's %+v in its own slot 2", fail, w.out, w.hit, want)
		}

		s.mu.Lock()
		if len(s.waiters) != 0 {
			t.Errorf("fail=%t: %d waiter records left", fail, len(s.waiters))
		}
		// Every other entry settled while pendKey was pinned and was
		// evicted then, so pendKey is all that may stay.
		cached := s.find(h, pendKey) != nilSlot
		resident := 1
		if fail {
			resident = 0
		}
		if cached == fail || s.n != resident {
			t.Errorf("fail=%t: cached=%t with %d resident, want cached=%t and %d resident", fail, cached, s.n, !fail, resident)
		}
		s.mu.Unlock()
	}
}

// TestCacheEntryHoldsNoPointers walks the slab entry's type: a pointer,
// string, interface, slice, map, chan or func anywhere in it would make
// every slab page a scanned object, and the index must stay a map the
// collector does not scan either.
func TestCacheEntryHoldsNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Interface,
			reflect.Slice, reflect.Map, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: the collector would scan the cache", path, typ.Kind())
		}
	}
	walk("centry", reflect.TypeOf(centry{}))
	idx := reflect.TypeOf(cacheShard{}.idx)
	walk("idx key", idx.Key())
	walk("idx value", idx.Elem())
}

// TestCacheMissAllocBudget pins the claim/finish path's allocations. A
// cold miss on a full cache, which claims one entry and evicts
// another, allocates nothing: the new entry takes the evicted entry's
// slot, nobody waits on it, so no waiter record is made, and the index
// stops growing once the cache is full. A hit allocates nothing.
func TestCacheMissAllocBudget(t *testing.T) {
	c := newCache(1024)
	fn := func(a *Answer) { a.Value = 1 }
	var a Answer
	var next int64
	miss := func() {
		next++
		cachedOrCompute(c, specKey{n: next}, &a, fn)
	}
	for i := 0; i < 4096; i++ {
		miss()
	}
	if got := testing.AllocsPerRun(2000, miss); got != 0 {
		t.Errorf("a cold miss on a full cache allocates %.3f objects, want 0", got)
	}
	hot := specKey{n: next}
	if got := testing.AllocsPerRun(2000, func() { cachedOrCompute(c, hot, &a, fn) }); got != 0 {
		t.Errorf("a cache hit allocates %.3f objects, want 0", got)
	}
}

// TestCacheEntryFootprint pins the heap a resident entry costs, index
// slot included, on a DefaultCacheSize cache filled past capacity the
// way a long run of cold sweeps fills it. The figure sets the retained
// heap of a serving process with a full cache (docs/performance.md,
// "Cold path: the cache miss and its footprint").
func TestCacheEntryFootprint(t *testing.T) {
	fn := func(a *Answer) { a.Value = 1 }
	var a Answer
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := newCache(DefaultCacheSize)
	for i := 0; i < 2*DefaultCacheSize; i++ {
		cachedOrCompute(c, specKey{op: 1, n: int64(i), mach: machKey{tflp: 1}}, &a, fn)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	resident := c.len()
	runtime.KeepAlive(c)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(resident)
	t.Logf("%d resident entries, %.0f B of heap each", resident, per)
	if per > 320 {
		t.Errorf("a resident cache entry costs %.0f B of heap, budget is 320", per)
	}
}

// TestCacheRepeatOfAlignedSpaceHits: the shard is picked from hash
// bits every key field reaches. In a 16,384-spec speedup space whose n
// and procs are all multiples of 16, the key hashes take only 2 values
// in their low 4 bits, so h%16 would crowd the space into 2 of 16
// shards and keep 9,216 entries. The space must stay resident in a
// default-size cache, so its identical repeat is answered entirely
// from the cache, as DefaultCacheSize promises.
func TestCacheRepeatOfAlignedSpaceHits(t *testing.T) {
	sp := Space{Op: OpSpeedup, Stencils: []string{"5-point", "9-point", "9-star", "13-point"},
		Shapes: []string{"strip", "square"}, Machines: []core.MachineSpec{{Type: "sync-bus"}, {Type: "hypercube"}}}
	for i := range 64 {
		sp.Ns = append(sp.Ns, 256+16*i) // n >= procs, so every spec is valid and cached
	}
	for i := 1; i <= 16; i++ {
		sp.Procs = append(sp.Procs, 16*i)
	}
	if sp.Size() != 16384 {
		t.Fatalf("space has %d specs, want 16384", sp.Size())
	}
	e := New(Options{})
	if _, err := e.RunSpace(context.Background(), sp); err != nil {
		t.Fatal(err)
	}
	if n := e.cache.len(); n != sp.Size() {
		t.Fatalf("%d of %d specs resident after the first run", n, sp.Size())
	}
	before := e.Stats().CacheHits
	if _, err := e.RunSpace(context.Background(), sp); err != nil {
		t.Fatal(err)
	}
	if hits := e.Stats().CacheHits - before; hits != uint64(sp.Size()) {
		t.Fatalf("repeat got %d cache hits, want all %d", hits, sp.Size())
	}
}
