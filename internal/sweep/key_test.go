package sweep

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"unsafe"

	"optspeed/internal/core"
	"optspeed/internal/stencil"
)

// keyTestSpecs enumerates specs across every op × machine-type
// combination, plus variations of each op-relevant field and
// implicit/explicit machine defaults, so the equivalence test sees both
// specs that must share a key and specs that must not.
func keyTestSpecs() []Spec {
	var specs []Spec
	ops := append(Ops(), "")
	machines := []core.MachineSpec{}
	for _, typ := range core.MachineTypes() {
		machines = append(machines,
			core.MachineSpec{Type: typ},
			core.MachineSpec{Type: typ, Procs: 32},
			core.MachineSpec{Type: typ, Tflp: core.DefaultTflp}, // explicit default = implicit
			core.MachineSpec{Type: typ, Tflp: 2 * core.DefaultTflp},
		)
	}
	for _, op := range ops {
		for _, m := range machines {
			for _, n := range []int{0, 64, 128} {
				for _, procs := range []int{0, 8} {
					specs = append(specs, Spec{
						Op: op, N: n, Stencil: "5-point", Shape: "square",
						Machine: m, Procs: procs, Target: 0.5, PointsPerProc: 64,
					})
				}
			}
			specs = append(specs,
				Spec{Op: op, N: 64, Stencil: "9-point", Shape: "square", Machine: m, Procs: 8, Target: 0.5, PointsPerProc: 64},
				Spec{Op: op, N: 64, Stencil: "5-point", Shape: "strip", Machine: m, Procs: 8, Target: 0.5, PointsPerProc: 64},
				Spec{Op: op, N: 64, Stencil: "5-point", Shape: "square", Machine: m, Procs: 8, Target: 0.75, PointsPerProc: 32},
			)
		}
	}
	return specs
}

// TestStructKeyMatchesStringKey holds the engine's struct keys to the
// same equality classes as the string keys: for every pair of
// resolvable specs, the struct keys are equal exactly when the string
// keys are. This is the refactor's soundness condition — the cache
// coalesces precisely the specs it coalesced before.
func TestStructKeyMatchesStringKey(t *testing.T) {
	specs := keyTestSpecs()
	type keyed struct {
		spec Spec
		str  string
		sk   specKey
	}
	var ks []keyed
	for _, s := range specs {
		// The enumeration includes some unresolvable points (N=0 on
		// non-grid-search ops); both key forms must reject exactly the
		// same specs, and the resolvable ones feed the class check.
		str, strErr := s.Key()
		r, structErr := s.resolve()
		if (strErr == nil) != (structErr == nil) {
			t.Fatalf("spec %+v: string key err %v, struct key err %v", s, strErr, structErr)
		}
		if strErr != nil {
			continue
		}
		ks = append(ks, keyed{spec: s, str: str, sk: r.key})
	}
	if len(ks) < 500 {
		t.Fatalf("only %d resolvable specs; enumeration too small to be meaningful", len(ks))
	}
	classes := map[string]int{}
	structClasses := map[specKey]int{}
	for _, k := range ks {
		if _, ok := classes[k.str]; !ok {
			classes[k.str] = len(classes)
		}
		if _, ok := structClasses[k.sk]; !ok {
			structClasses[k.sk] = len(structClasses)
		}
	}
	if len(classes) != len(structClasses) {
		t.Fatalf("string keys form %d classes, struct keys %d", len(classes), len(structClasses))
	}
	for i := range ks {
		for j := i + 1; j < len(ks); j++ {
			strEq := ks[i].str == ks[j].str
			structEq := ks[i].sk == ks[j].sk
			if strEq != structEq {
				t.Fatalf("key class mismatch:\n  %+v\n  %+v\nstring equal %t, struct equal %t\n(%q vs %q)",
					ks[i].spec, ks[j].spec, strEq, structEq, ks[i].str, ks[j].str)
			}
		}
	}
}

// TestStructKeyUnresolvableMatchesStringKey checks that the struct path
// rejects exactly the specs the string path rejects.
func TestStructKeyUnresolvableMatchesStringKey(t *testing.T) {
	bad := []Spec{
		{Stencil: "7-point", Shape: "square", Machine: core.MachineSpec{Type: "mesh"}, N: 64},
		{Stencil: "5-point", Shape: "hexagon", Machine: core.MachineSpec{Type: "mesh"}, N: 64},
		{Stencil: "5-point", Shape: "square", Machine: core.MachineSpec{Type: "torus"}, N: 64},
		{Stencil: "5-point", Shape: "square", Machine: core.MachineSpec{Type: "mesh"}, N: -1},
		{Op: "transmogrify", Stencil: "5-point", Shape: "square", Machine: core.MachineSpec{Type: "mesh"}, N: 64},
	}
	for _, s := range bad {
		_, strErr := s.Key()
		_, structErr := s.resolve()
		if (strErr == nil) != (structErr == nil) {
			t.Fatalf("spec %+v: string key err %v, struct key err %v", s, strErr, structErr)
		}
		if strErr == nil {
			t.Fatalf("spec %+v unexpectedly resolvable", s)
		}
	}
}

// TestNaNFieldsRejectedAtResolve guards the comparable key's map
// semantics: NaN != NaN, so a NaN smuggled into a specKey field would
// make the cache entry unfindable and undeletable (a permanent miss
// that leaks an index entry per evaluation). Such specs must fail
// resolution and never reach the cache.
func TestNaNFieldsRejectedAtResolve(t *testing.T) {
	nan := math.NaN()
	bad := []Spec{
		{Op: OpIsoeffGrid, Stencil: "5-point", Shape: "square",
			Machine: core.MachineSpec{Type: "sync-bus"}, Procs: 8, Target: nan},
		{Op: OpScaled, N: 64, Stencil: "5-point", Shape: "square",
			Machine: core.MachineSpec{Type: "hypercube"}, PointsPerProc: nan},
		{N: 64, Stencil: "5-point", Shape: "square",
			Machine: core.MachineSpec{Type: "hypercube", Alpha: nan}},
	}
	e := New(Options{Workers: 1, CacheSize: 4})
	for _, s := range bad {
		if _, err := s.resolve(); err == nil {
			t.Fatalf("spec %+v with NaN field resolved", s)
		}
		if _, err := s.Key(); err == nil {
			t.Fatalf("spec %+v with NaN field produced a string key", s)
		}
		for i := 0; i < 10; i++ {
			if _, err := e.Evaluate(context.Background(), s); err == nil {
				t.Fatalf("spec %+v with NaN field evaluated", s)
			}
		}
	}
	if got := e.cache.len(); got != 0 {
		t.Fatalf("NaN specs leaked %d cache entries", got)
	}
}

// TestResolveAndLookupAllocBudget pins the hot path's allocation
// budget: resolving a spec and answering it from the warm cache must
// cost at most 2 allocations (the interface box in
// MachineSpec.Machine is the only expected one; the budget leaves one
// spare so a compiler-version wobble doesn't flake the suite).
func TestResolveAndLookupAllocBudget(t *testing.T) {
	e := New(Options{Workers: 1})
	spec := Spec{N: 256, Stencil: "5-point", Shape: "square", Machine: core.MachineSpec{Type: "sync-bus"}}
	if _, err := e.Evaluate(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	// A worker's unit: its slot and member are the worker's, not the
	// lookup's.
	var rs [1]Result
	u := unit{rs: rs[:], ms: make([]member, 1)}
	out := &rs[0]
	allocs := testing.AllocsPerRun(200, func() {
		out.Spec = spec
		e.evalUnit(nil, &u)
		if out.Err != nil || !out.CacheHit {
			t.Fatalf("warm eval failed: err=%v hit=%t", out.Err, out.CacheHit)
		}
	})
	if allocs > 2 {
		t.Fatalf("resolve+lookup allocates %.1f/op, budget is 2", allocs)
	}
}

// TestResolveOnlyAllocBudget pins spec resolution alone (problem,
// machine, struct key) to the same budget.
func TestResolveOnlyAllocBudget(t *testing.T) {
	spec := Spec{Op: OpSpeedup, N: 512, Stencil: "9-point", Shape: "strip",
		Machine: core.MachineSpec{Type: "hypercube"}, Procs: 64}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := spec.resolve(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("resolve allocates %.1f/op, budget is 2", allocs)
	}
}

// TestStencilAndProblemCopyBudget pins the sizes the cold optimize
// search copies. Optimize's search calls value-receiver methods on
// core.Problem once per candidate processor count, and every resolved
// spec embeds a Problem. When a stencil was an 80-byte
// value, runtime.duffcopy took 27.8% of BenchmarkSweepEngine's CPU
// (profile and numbers: docs/performance.md, "Cold path: stencil
// handles"). A field added to Stencil or Problem must not bring that
// copy back.
func TestStencilAndProblemCopyBudget(t *testing.T) {
	ptr := unsafe.Sizeof(uintptr(0))
	if got := unsafe.Sizeof(stencil.Stencil{}); got != ptr {
		t.Errorf("stencil.Stencil is %d bytes, budget is one pointer (%d): keep it a handle onto a shared definition (docs/performance.md, \"Cold path: stencil handles\")", got, ptr)
	}
	if got := unsafe.Sizeof(core.Problem{}); got > 24 {
		t.Errorf("core.Problem is %d bytes, budget is 24: Optimize copies it per candidate count (docs/performance.md, \"Cold path: stencil handles\")", got)
	}
}

// TestCacheConcurrentEvictionStress hammers a tiny sharded cache from
// many goroutines with overlapping keys — far more keys than capacity,
// so eviction, coalescing, claims that compute, claims that only take
// what is there, and lookups race continuously — and checks every
// returned answer is the right one for its key.
func TestCacheConcurrentEvictionStress(t *testing.T) {
	c := newCache(8)
	const (
		goroutines = 16
		iters      = 400
		keys       = 64
	)
	keyFor := func(i int) specKey { return specKey{n: int64(i), procs: int64(i * 3)} }
	wantGrid := func(i int) int { return i*7 + 1 }
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g*31 + it*17) % keys
				k := keyFor(i)
				var out Answer
				switch it % 3 {
				case 0:
					cachedOrCompute(c, k, &out, func(a *Answer) { a.Grid = wantGrid(i) })
					if out.Err != nil || out.Grid != wantGrid(i) {
						errs <- fmt.Errorf("key %d: got %+v", i, out)
						return
					}
				case 1:
					// Claim and finish at once if the key was absent; a
					// hit must be the key's own answer.
					switch tk := c.claim(k, &out); {
					case tk.owned():
						tk.finish(&Answer{Grid: wantGrid(i)})
					case tk.w == nil && (out.Err != nil || out.Grid != wantGrid(i)):
						errs <- fmt.Errorf("hit key %d: got %+v", i, out)
						return
					}
				case 2:
					h := k.hash()
					if ok := peek(c.shardFor(h), h, k, &out); ok && (out.Err != nil || out.Grid != wantGrid(i)) {
						errs <- fmt.Errorf("peek key %d: got %+v", i, out)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := c.len(); got > 8+8 { // capacity plus shard slack
		t.Fatalf("cache holds %d entries, capacity 8 (+slack)", got)
	}
}

// TestCachePutRespectsResidents ensures a claim never replaces a
// resident entry (the first answer wins: an entry in flight may have
// waiters, and a settled one is a hit) and that finishing with an error
// drops the entry.
func TestCachePutRespectsResidents(t *testing.T) {
	c := newCache(8)
	k := specKey{n: 7}
	var out Answer
	for _, grid := range []int{1, 2} {
		if tk := c.claim(k, &out); tk.owned() {
			tk.finish(&Answer{Grid: grid})
		}
	}
	h := k.hash()
	if ok := peek(c.shardFor(h), h, k, &out); !ok || out.Grid != 1 {
		t.Fatalf("a claim replaced a resident entry: %+v ok=%t", out, ok)
	}
	bad := specKey{n: 8}
	tb := c.claim(bad, &out)
	if !tb.owned() {
		t.Fatal("an absent key's claim does not own it")
	}
	tb.finish(&Answer{Err: fmt.Errorf("boom")})
	h = bad.hash()
	if ok := peek(c.shardFor(h), h, bad, &out); ok {
		t.Fatal("errored answer was cached")
	}
}

// TestRunSpaceBatchedSpeedupMatchesIndividual checks the batched
// OpSpeedup fast path against per-spec evaluation: identical values
// and identical error messages, including out-of-range processor
// counts mixed into the axis.
func TestRunSpaceBatchedSpeedupMatchesIndividual(t *testing.T) {
	sp := Space{
		Op:       OpSpeedup,
		Ns:       []int{32, 64},
		Stencils: []string{"5-point", "9-point"},
		Shapes:   []string{"strip", "square"},
		Machines: []core.MachineSpec{
			{Type: "sync-bus"}, {Type: "hypercube"}, {Type: "banyan", Procs: 16},
		},
		// 0 and 4096 are out of range for some (shape, n) pairs: the
		// batch must reproduce the exact per-spec range errors.
		Procs: []int{0, 1, 2, 16, 33, 4096},
	}
	batched := New(Options{Workers: 4})
	got, err := batched.RunSpace(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	individual := New(Options{Workers: 4})
	specs := sp.Expand()
	if len(got) != len(specs) {
		t.Fatalf("got %d results, want %d", len(got), len(specs))
	}
	for i, s := range specs {
		want, wantErr := individual.Evaluate(context.Background(), s)
		r := got[i]
		if (r.Err == nil) != (wantErr == nil) {
			t.Fatalf("spec %d (%+v): batched err %v, individual err %v", i, s, r.Err, wantErr)
		}
		if r.Err != nil {
			if r.Err.Error() != wantErr.Error() {
				t.Fatalf("spec %d: batched err %q, individual err %q", i, r.Err, wantErr)
			}
			continue
		}
		if r.Value != want.Value {
			t.Fatalf("spec %d (%+v): batched value %g, individual %g", i, s, r.Value, want.Value)
		}
	}
	// A repeat of the same space must be answered from cache.
	again, err := batched.RunSpace(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range again {
		if r.Err == nil && !r.CacheHit {
			t.Fatalf("spec %d not served from cache on repeat", i)
		}
		if r.Value != got[i].Value {
			t.Fatalf("spec %d: repeat value %g != first %g", i, r.Value, got[i].Value)
		}
	}
}

// TestRunSpacePreResolutionErrorParity checks that a space's
// worker-side resolution (machines resolved once per space, the rest on
// the worker, or once per group on the batched procs path) reports the
// same per-spec errors, with the same precedence, as per-spec
// resolution, and that every result names the spec at its index.
func TestRunSpacePreResolutionErrorParity(t *testing.T) {
	for _, sp := range []Space{{
		Op:       OpOptimize,
		Ns:       []int{0, 64},
		Stencils: []string{"5-point", "no-such-stencil"},
		Shapes:   []string{"square", "triangle"},
		Machines: []core.MachineSpec{{Type: "mesh"}, {Type: "no-such-machine"}},
		// An op without a batch evaluator streams spec by spec even
		// with a procs axis, which sits below the machine axis.
		Procs: []int{0, 3},
	}, {
		// The batched path: a batch-evaluator op with a procs axis.
		Op:       OpSpeedup,
		Ns:       []int{0, 64},
		Stencils: []string{"no-such-stencil", "9-point"},
		Shapes:   []string{"triangle", "strip", "square"},
		Machines: []core.MachineSpec{{Type: "no-such-machine"}, {Type: "hypercube"}, {Type: "sync-bus"}},
		Procs:    []int{0, 2, 4, 1 << 20},
	}} {
		e := New(Options{Workers: 2})
		got, err := e.RunSpace(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != sp.Size() {
			t.Fatalf("op %s: %d results, want %d", sp.Op, len(got), sp.Size())
		}
		var okCount int
		for i, r := range got {
			s := sp.At(i)
			if r.Spec != s || r.Index != i {
				t.Fatalf("op %s result %d: names spec %+v at index %d, want %+v", sp.Op, i, r.Spec, r.Index, s)
			}
			_, wantErr := s.resolve()
			if wantErr == nil {
				okCount++
				continue
			}
			if r.Err == nil || r.Err.Error() != wantErr.Error() {
				t.Fatalf("op %s spec %d (%+v): RunSpace err %v, resolve err %q", sp.Op, i, s, r.Err, wantErr)
			}
		}
		if okCount == 0 || okCount == len(got) {
			t.Fatalf("op %s: %d of %d specs resolve; the space must mix good and bad specs", sp.Op, okCount, len(got))
		}
		// The same specs as a flat list (per-spec resolution and
		// evaluation) on a fresh engine give the same answers.
		flat, err := New(Options{Workers: 2}).Run(context.Background(), sp.Expand())
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i].ErrText() != flat[i].ErrText() || got[i].Value != flat[i].Value || got[i].Alloc != flat[i].Alloc {
				t.Fatalf("op %s spec %d: RunSpace %+v, Run %+v", sp.Op, i, got[i], flat[i])
			}
		}
	}
}
