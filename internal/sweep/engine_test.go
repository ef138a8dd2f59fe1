package sweep

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"optspeed/internal/core"
	"optspeed/internal/partition"
	"optspeed/internal/stencil"
)

func syncBusSpec() core.MachineSpec { return core.MachineSpec{Type: "sync-bus"} }

func testSpace() Space {
	return Space{
		Ns:       []int{64, 128, 256, 512},
		Stencils: []string{"5-point", "9-point"},
		Shapes:   []string{"strip", "square"},
		Machines: []core.MachineSpec{
			{Type: "sync-bus"}, {Type: "hypercube"}, {Type: "banyan"},
		},
	}
}

func TestSpaceExpandSize(t *testing.T) {
	sp := testSpace()
	specs := sp.Expand()
	if len(specs) != sp.Size() || len(specs) != 4*2*2*3 {
		t.Fatalf("expanded %d specs, Size()=%d, want 48", len(specs), sp.Size())
	}
	// Deterministic order: the first axis to vary is procs, then
	// machines, then shapes.
	if specs[0].Machine.Type != "sync-bus" || specs[1].Machine.Type != "hypercube" {
		t.Fatalf("unexpected expansion order: %+v %+v", specs[0], specs[1])
	}
}

func TestSpaceSizeOverflowSaturates(t *testing.T) {
	axis := make([]int, 1<<13)
	names := make([]string, 1<<13)
	machines := make([]core.MachineSpec, 1<<13)
	sp := Space{Ns: axis, Stencils: names, Shapes: names, Machines: machines, Procs: axis}
	// (2^13)^5 = 2^65 overflows int64; Size must saturate, not wrap.
	if got := sp.Size(); got != math.MaxInt {
		t.Fatalf("overflowing space Size() = %d, want MaxInt", got)
	}
	if got := (Space{}).Size(); got != 0 {
		t.Fatalf("empty space Size() = %d, want 0", got)
	}
	// RunSpace must reject the overflow instead of expanding it, and
	// Expand must refuse to materialize it.
	if _, err := New(Options{}).RunSpace(context.Background(), sp); err == nil {
		t.Fatal("RunSpace expanded an overflowing space")
	}
	if got := sp.Expand(); got != nil {
		t.Fatalf("Expand materialized an overflowing space: %d specs", len(got))
	}
}

func TestEngineWideWorkerCap(t *testing.T) {
	// Two concurrent Runs against a Workers=1 engine must both finish:
	// the engine-wide semaphore serializes evaluations without
	// deadlocking across calls.
	e := New(Options{Workers: 1})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Run(context.Background(), testSpace().Expand()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if st := e.Stats(); st.Evaluations != uint64(testSpace().Size()) {
		t.Fatalf("%d evaluations for two identical concurrent runs, want %d (rest coalesced)",
			st.Evaluations, testSpace().Size())
	}
}

func TestCancelWhileWaitingForSlot(t *testing.T) {
	e := New(Options{Workers: 1})
	e.sem <- struct{}{} // occupy the only evaluation slot
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := e.Evaluate(ctx, Spec{N: 64, Stencil: "5-point", Shape: "square",
			Machine: syncBusSpec()})
		errCh <- err
	}()
	cancel()
	// Depending on when cancel lands, the call fails on entry
	// (context.Canceled) or while parked on the slot (ErrWaitCancelled);
	// either way it must return promptly instead of blocking.
	if err := <-errCh; !errors.Is(err, ErrWaitCancelled) && !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled slot wait returned %v", err)
	}
	<-e.sem // release; the engine must be reusable afterwards
	if _, err := e.Evaluate(context.Background(), Spec{N: 64, Stencil: "5-point",
		Shape: "square", Machine: syncBusSpec()}); err != nil {
		t.Fatalf("engine unusable after a cancelled slot wait: %v", err)
	}
}

func TestCancelledOwnerDoesNotPoisonCoalescedWaiter(t *testing.T) {
	// Caller A creates the in-flight entry for spec K but is cancelled
	// while parked on the (occupied) semaphore; caller B, live, has
	// coalesced on that entry. B must not inherit A's ErrWaitCancelled:
	// it retries, becomes the computer, and gets the real answer.
	e := New(Options{Workers: 1})
	e.sem <- struct{}{} // occupy the only slot so A parks
	spec := Spec{N: 256, Stencil: "5-point", Shape: "square", Machine: syncBusSpec()}

	ctxA, cancelA := context.WithCancel(context.Background())
	aDone := make(chan error, 1)
	go func() {
		_, err := e.Evaluate(ctxA, spec)
		aDone <- err
	}()
	time.Sleep(50 * time.Millisecond) // let A insert the entry and park on the slot

	bDone := make(chan Result, 1)
	go func() {
		r, err := e.Evaluate(context.Background(), spec)
		if err != nil {
			t.Errorf("live waiter B failed: %v", err)
		}
		bDone <- r
	}()
	time.Sleep(50 * time.Millisecond) // let B coalesce on A's entry

	cancelA()
	if err := <-aDone; !errors.Is(err, ErrWaitCancelled) && !errors.Is(err, context.Canceled) {
		t.Fatalf("A returned %v", err)
	}
	<-e.sem // free the slot so B's retry can compute

	r := <-bDone
	if r.Err != nil || r.Alloc.Procs != 14 {
		t.Fatalf("B got poisoned result %+v, want the real optimum (procs 14)", r)
	}
}

// waitForEntry spins until spec's cache entry is resident and, with
// waiter set, until another claimant has parked on it.
func waitForEntry(t *testing.T, e *Engine, spec Spec, waiter bool) {
	t.Helper()
	r, err := spec.resolve()
	if err != nil {
		t.Fatal(err)
	}
	h := r.key.hash()
	sh := e.cache.shardFor(h)
	for done := false; !done; runtime.Gosched() {
		sh.mu.Lock()
		i := sh.find(h, r.key)
		done = i != nilSlot && (!waiter || sh.waiters[i] != nil)
		sh.mu.Unlock()
	}
}

func TestCoalescedErrorNotAHit(t *testing.T) {
	// The owner claims the key and parks on the held evaluation slot, so
	// the second caller coalesces onto its entry; the computation then
	// fails, and the waiter must get the error without the hit flag.
	e := New(Options{Workers: 1})
	spec := Spec{Op: OpSpeedup, N: 8, Stencil: "5-point", Shape: "strip", Machine: syncBusSpec(), Procs: 4096}
	e.sem <- struct{}{}
	got := make(chan Result, 2)
	for range 2 {
		go func() {
			r, _ := e.Evaluate(context.Background(), spec)
			got <- r
		}()
	}
	waitForEntry(t, e, spec, true)
	<-e.sem
	for range 2 {
		if r := <-got; r.Err == nil || r.CacheHit {
			t.Fatalf("got %+v; want the model error, and no cache hit for the coalesced waiter", r.Answer)
		}
	}
	if st := e.Stats(); st.Evaluations != 1 || st.CacheHits != 0 {
		t.Fatalf("%d evaluations and %d hits, want 1 and 0", st.Evaluations, st.CacheHits)
	}
}

func TestRunMatchesDirectOptimize(t *testing.T) {
	e := New(Options{Workers: 4})
	sp := testSpace()
	sp.Machines = []core.MachineSpec{
		{Type: "sync-bus"}, {Type: "async-bus"}, {Type: "full-async-bus"},
		{Type: "hypercube"}, {Type: "mesh"}, {Type: "banyan"},
	}
	specs := sp.Expand()
	// The first run computes every answer; the second is answered from
	// the cache, and both must hold exactly core.Optimize's numbers.
	for run, wantHit := range []bool{false, true} {
		results, err := e.Run(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(specs) {
			t.Fatalf("got %d results, want %d", len(results), len(specs))
		}
		for i, r := range results {
			if r.Index != i {
				t.Fatalf("result %d has index %d: ordering broken", i, r.Index)
			}
			if r.Err != nil {
				t.Fatalf("spec %d: %v", i, r.Err)
			}
			if r.CacheHit != wantHit {
				t.Fatalf("run %d, spec %d: cache_hit %t, want %t", run, i, r.CacheHit, wantHit)
			}
			p, err := r.Spec.Problem()
			if err != nil {
				t.Fatal(err)
			}
			arch, err := r.Spec.Machine.Machine()
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Optimize(p, arch)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r.Alloc, allocOf(want)) {
				t.Fatalf("run %d, spec %d: engine alloc %+v != direct %+v", run, i, r.Alloc, want)
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	e := New(Options{Workers: 7})
	specs := testSpace().Expand()
	first, err := e.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		a, b := first[i], second[i]
		a.CacheHit, b.CacheHit = false, false
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("run not deterministic at %d: %+v vs %+v", i, a, b)
		}
	}
}

func TestCacheHitAccounting(t *testing.T) {
	e := New(Options{Workers: 4})
	specs := testSpace().Expand()
	if _, err := e.Run(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Evaluations != uint64(len(specs)) {
		t.Fatalf("first run evaluated %d specs, want %d", st.Evaluations, len(specs))
	}
	if st.CacheHits != 0 {
		t.Fatalf("first run reported %d cache hits, want 0", st.CacheHits)
	}
	results, err := e.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.CacheHit {
			t.Fatalf("repeat spec %d missed the cache", i)
		}
	}
	st = e.Stats()
	if st.Evaluations != uint64(len(specs)) {
		t.Fatalf("repeat run recomputed: %d evaluations, want %d", st.Evaluations, len(specs))
	}
	if st.CacheHits != uint64(len(specs)) {
		t.Fatalf("repeat run hit %d, want %d", st.CacheHits, len(specs))
	}
	if st.CacheLen != len(specs) {
		t.Fatalf("cache holds %d entries, want %d", st.CacheLen, len(specs))
	}
}

func TestKeyCanonicalizesMachineDefaults(t *testing.T) {
	implicit := Spec{N: 256, Stencil: "5-point", Shape: "square",
		Machine: core.MachineSpec{Type: "sync-bus"}}
	explicit := implicit
	explicit.Machine.Tflp = core.DefaultTflp
	explicit.Machine.BusCycle = core.DefaultBusCycle
	k1, err := implicit.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := explicit.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("default-filled machines key differently:\n%s\n%s", k1, k2)
	}

	e := New(Options{})
	if _, err := e.Evaluate(context.Background(), implicit); err != nil {
		t.Fatal(err)
	}
	res, err := e.Evaluate(context.Background(), explicit)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("canonically equal spec did not coalesce in the cache")
	}
}

func TestKeySeparatesOps(t *testing.T) {
	base := Spec{N: 128, Stencil: "5-point", Shape: "square", Machine: syncBusSpec()}
	snapped := base
	snapped.Op = OpOptimizeSnapped
	k1, _ := base.Key()
	k2, _ := snapped.Key()
	if k1 == k2 {
		t.Fatal("different ops share a cache key")
	}
}

// TestOptimizeSnappedIsOptimizeAlias: the optimize-snapped op answers
// exactly what optimize answers, for every machine type, both shapes,
// every stencil, and capped and uncapped machines. Only the echoed op
// differs.
func TestOptimizeSnappedIsOptimizeAlias(t *testing.T) {
	var machines []core.MachineSpec
	for _, typ := range core.MachineTypes() {
		machines = append(machines, core.MachineSpec{Type: typ}, core.MachineSpec{Type: typ, Procs: 64})
	}
	sp := Space{
		Ns:       []int{37, 256, 1000},
		Stencils: []string{"5-point", "9-point", "9-star", "13-point"},
		Shapes:   []string{"strip", "square"},
		Machines: machines,
	}
	e := New(Options{Workers: 2})
	want, err := e.RunSpace(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	sp.Op = OpOptimizeSnapped
	got, err := e.RunSpace(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Spec.Op != OpOptimizeSnapped {
			t.Fatalf("spec %d echoes op %q", i, got[i].Spec.Op)
		}
		if got[i].CacheHit {
			t.Fatalf("spec %d: optimize-snapped answered from optimize's cache entry", i)
		}
		g := got[i]
		g.Spec.Op = want[i].Spec.Op
		if !reflect.DeepEqual(g, want[i]) {
			t.Errorf("spec %d: optimize-snapped %+v != optimize %+v", i, got[i], want[i])
		}
	}
}

func TestInvalidSpecs(t *testing.T) {
	e := New(Options{})
	cases := []Spec{
		{N: 64, Stencil: "7-point", Shape: "square", Machine: syncBusSpec()},
		{N: 64, Stencil: "5-point", Shape: "hexagon", Machine: syncBusSpec()},
		{N: 64, Stencil: "5-point", Shape: "square", Machine: core.MachineSpec{Type: "quantum"}},
		{N: 0, Stencil: "5-point", Shape: "square", Machine: syncBusSpec()},
		{Op: "frobnicate", N: 64, Stencil: "5-point", Shape: "square", Machine: syncBusSpec()},
	}
	results, err := e.Run(context.Background(), cases)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err == nil {
			t.Fatalf("invalid spec %d evaluated without error", i)
		}
	}
	if st := e.Stats(); st.Errors != uint64(len(cases)) {
		t.Fatalf("stats count %d errors, want %d", st.Errors, len(cases))
	}
	if st := e.Stats(); st.CacheLen != 0 {
		t.Fatalf("errors were cached: cache len %d", st.CacheLen)
	}
}

func TestCancellation(t *testing.T) {
	e := New(Options{Workers: 2})
	// A big space: cancellation must stop the run early.
	sp := runAheadSpace(testSpace(), 2)
	specs := sp.Expand()
	ctx, cancel := context.WithCancel(context.Background())

	ch, _, _ := e.Open(ctx, Batch{Specs: specs})
	first, ok := <-ch
	if !ok {
		t.Fatal("stream closed before any result")
	}
	if len(first.Results) == 0 || first.Results[0].Err != nil {
		t.Fatalf("first chunk carries no clean result: %+v", first.Results)
	}
	e.Recycle(first)
	cancel()
	for c := range ch {
		// Drain; the channel must close promptly after cancellation.
		e.Recycle(c)
	}
	if got := e.Stats().Evaluations; got >= uint64(len(specs)) {
		t.Fatalf("cancellation did not stop the sweep: %d evaluations of %d specs",
			got, len(specs))
	}

	// Run surfaces the cancellation and marks unevaluated entries.
	results, err := e.Run(ctx, specs)
	if err == nil {
		t.Fatal("Run on a cancelled context returned nil error")
	}
	for _, r := range results {
		if r.Err == nil && r.Spec.N == 0 {
			t.Fatal("unevaluated result carries no error")
		}
	}
}

// runAheadSpace grows sp's Ns axis with distinct cold grid sizes until
// the space is twice what a chunked stream on an engine of the given
// worker count can evaluate ahead of its consumer: each worker fills
// one chunk of up to chunkCap results while up to workers more wait in
// the channel, and the consumer holds one. Only a space larger than
// that shows whether cancellation stops the sweep early.
func runAheadSpace(sp Space, workers int) Space {
	sp.Ns = nil
	for n := 64; sp.Size() <= 2*(2*workers+1)*chunkCap; n += 8 {
		sp.Ns = append(sp.Ns, n)
	}
	return sp
}

func TestEvaluateCancelled(t *testing.T) {
	e := New(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Evaluate(ctx, Spec{N: 64, Stencil: "5-point", Shape: "square",
		Machine: syncBusSpec()}); err == nil {
		t.Fatal("Evaluate on cancelled context succeeded")
	}
}

func TestCoalescingConcurrentDuplicates(t *testing.T) {
	e := New(Options{Workers: 8})
	spec := Spec{N: 2048, Stencil: "9-point", Shape: "square", Machine: syncBusSpec()}
	const callers = 16
	// Hold every evaluation slot, so the first caller parks inside its
	// computation and the others coalesce onto its in-flight entry;
	// release them once one waiter has parked.
	for range cap(e.sem) {
		e.sem <- struct{}{}
	}
	var wg sync.WaitGroup
	got := make([]Result, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := e.Evaluate(context.Background(), spec)
			if err != nil {
				t.Error(err)
			}
			got[i] = r
		}()
	}
	waitForEntry(t, e, spec, true)
	for range cap(e.sem) {
		<-e.sem
	}
	wg.Wait()
	if st := e.Stats(); st.Evaluations != 1 {
		t.Fatalf("%d concurrent duplicates computed %d times, want 1", callers, st.Evaluations)
	}
	// Exactly one caller computed the answer; every other one, coalesced
	// or served from the settled entry, got a copy of the owner's.
	owner := -1
	for i, r := range got {
		if !r.CacheHit {
			if owner >= 0 {
				t.Fatalf("callers %d and %d both report computing the answer", owner, i)
			}
			owner = i
		}
	}
	if owner < 0 {
		t.Fatal("no caller reports computing the answer")
	}
	want := got[owner]
	if want.Err != nil || want.Alloc.Procs == 0 || want.Value != want.Alloc.Speedup {
		t.Fatalf("owner got %+v, want a real optimum", want)
	}
	for i, r := range got {
		if r.Alloc != want.Alloc || r.Value != want.Value || r.Err != want.Err || r.Index != 0 {
			t.Errorf("caller %d got %+v, want the owner's answer %+v", i, r.Answer, want.Answer)
		}
	}
}

func TestGridOpsKeyIgnoresSeedN(t *testing.T) {
	e := New(Options{})
	ctx := context.Background()
	base := Spec{Op: OpMinGrid, N: 16, Stencil: "5-point", Shape: "square",
		Machine: syncBusSpec(), Procs: 8}
	first, err := e.Evaluate(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	other := base
	other.N = 512
	second, err := e.Evaluate(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("min-grid with a different seed N missed the cache")
	}
	if first.Grid != second.Grid {
		t.Fatalf("seed N changed the answer: %d vs %d", first.Grid, second.Grid)
	}
	// Omitting N entirely is valid for the grid-search ops (the search
	// overwrites it) and shares the same cache entry.
	seedless := base
	seedless.N = 0
	third, err := e.Evaluate(ctx, seedless)
	if err != nil {
		t.Fatal(err)
	}
	if !third.CacheHit || third.Grid != first.Grid {
		t.Fatalf("seedless min-grid: hit=%t grid=%d, want hit with grid %d",
			third.CacheHit, third.Grid, first.Grid)
	}
	// The optimize ops still key on N.
	a := Spec{N: 128, Stencil: "5-point", Shape: "square", Machine: syncBusSpec()}
	b := a
	b.N = 256
	ka, _ := a.Key()
	kb, _ := b.Key()
	if ka == kb {
		t.Fatal("optimize specs at different N share a key")
	}
}

func TestRecoverOutcome(t *testing.T) {
	err := recoverPanic(func() { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panic not converted to error: %v", err)
	}
	if !errors.Is(err, ErrEvaluationPanic) {
		t.Fatalf("recovered panic not marked with ErrEvaluationPanic: %v", err)
	}
	if err := recoverPanic(func() {}); err != nil {
		t.Fatalf("no panic, but got %v", err)
	}
	// An evaluator that writes some numbers and then panics leaves only
	// the panic error, in a slot that keeps its Index.
	d, _ := lookupOp(OpCriticalPath)
	eval := d.eval
	d.eval = func(_ Spec, _ resolved, a *Answer) {
		a.Alloc = Alloc{Procs: 14, Speedup: 3}
		a.Value, a.Grid, a.CacheHit = 3, 2, true
		a.Scaled.Speedup = 3
		panic("boom")
	}
	defer func() { d.eval = eval }()
	var specs []Spec
	for n := 64; n < 74; n++ {
		specs = append(specs, Spec{Op: OpCriticalPath, N: n, Stencil: "5-point", Shape: "square", Machine: syncBusSpec(), Procs: 4})
	}
	rs, err := New(Options{Workers: 1}).Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if !errors.Is(r.Err, ErrEvaluationPanic) {
			t.Fatalf("half-written answer %d's panic not recovered: %v", i, r.Err)
		}
		if want := (Answer{Index: i, Err: r.Err}); !reflect.DeepEqual(r.Answer, want) {
			t.Fatalf("half-written answer kept %+v, want only the panic error and Index %d", r.Answer, i)
		}
	}
}

// TestUnitCoalescingAcrossPaths runs one cold batched space twice at
// once on one engine, as procs-group units, while a third caller runs
// the same specs as a flat list, as single-spec units. Every key must
// be computed exactly once, whichever kind of unit claims it first, and
// every caller must get a fresh engine's answers.
func TestUnitCoalescingAcrossPaths(t *testing.T) {
	ctx := context.Background()
	e := New(Options{Workers: 4})
	evals := 0
	for round := range 4 {
		sp := Space{
			Op:       OpSpeedup,
			Ns:       []int{64 + 8*round, 128 + 8*round},
			Stencils: []string{"5-point", "9-point"},
			Shapes:   []string{"strip", "square"},
			Machines: []core.MachineSpec{syncBusSpec(), {Type: "hypercube"}, {Type: "mesh"}},
			Procs:    []int{1, 2, 4, 8, 16, 32},
		}
		want, err := New(Options{}).RunSpace(ctx, sp)
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]Result, 3)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for k := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				var err error
				if k < 2 {
					got[k], err = e.RunSpace(ctx, sp)
				} else {
					got[k], err = e.Run(ctx, sp.Expand())
				}
				if err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
		evals += sp.Size()
		if st := e.Stats(); st.Evaluations != uint64(evals) {
			t.Fatalf("round %d: %d evaluations, want %d: a key was computed twice", round, st.Evaluations, evals)
		}
		for k := range got {
			for i := range want {
				if want[i].Err != nil {
					t.Fatalf("spec %d fails: %v", i, want[i].Err)
				}
				r := got[k][i]
				r.CacheHit = false
				if !reflect.DeepEqual(r, want[i]) {
					t.Fatalf("round %d caller %d result %d: got %+v, want a fresh engine's %+v", round, k, i, r, want[i])
				}
			}
		}
	}
}

// TestUnitBatchPanic swaps in a panicking batch evaluator. Every member
// of each group must answer ErrEvaluationPanic; the group's sem slot
// must come back, so the next sweep on a one-worker engine completes;
// and no pending entry may be left, so a repeat computes again instead
// of waiting for ever.
func TestUnitBatchPanic(t *testing.T) {
	ctx := context.Background()
	sp := Space{
		Op:       OpCriticalPath,
		Ns:       []int{64, 128},
		Stencils: []string{"5-point"},
		Shapes:   []string{"strip", "square"},
		Machines: []core.MachineSpec{syncBusSpec()},
		Procs:    []int{2, 4, 8},
	}
	e := New(Options{Workers: 1})
	run := func() []Result {
		t.Helper()
		done := make(chan []Result, 1)
		go func() {
			rs, err := e.RunSpace(ctx, sp)
			if err != nil {
				t.Error(err)
			}
			done <- rs
		}()
		select {
		case rs := <-done:
			return rs
		case <-time.After(10 * time.Second):
			t.Fatal("the sweep hung: a sem slot or a pending entry was left behind")
			return nil
		}
	}
	d, _ := lookupOp(OpCriticalPath)
	batch := d.batch
	d.batch = func(core.Problem, core.Architecture, []int) ([]float64, []error, error) { panic("boom") }
	defer func() { d.batch = batch }()
	for round := 1; round <= 2; round++ {
		for i, r := range run() {
			if !errors.Is(r.Err, ErrEvaluationPanic) || r.Index != i || r.CacheHit {
				t.Fatalf("round %d member %d: got %+v, want ErrEvaluationPanic", round, i, r.Answer)
			}
		}
		if st := e.Stats(); st.Evaluations != uint64(round*sp.Size()) || st.CacheLen != 0 {
			t.Fatalf("round %d: %d evaluations with %d cached, want %d and none", round, st.Evaluations, st.CacheLen, round*sp.Size())
		}
	}
	d.batch = batch
	want, err := New(Options{}).RunSpace(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	if got := run(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the panics: got %+v, want a fresh engine's %+v", got, want)
	}
}

func TestCoalescedWaiterReleasedOnCancel(t *testing.T) {
	// The owner claims the key and parks on the held evaluation slot; a
	// waiter coalesced onto its entry must return ErrWaitCancelled as
	// soon as its own context dies, while the owner is still parked.
	e := New(Options{Workers: 1})
	spec := Spec{N: 300, Stencil: "5-point", Shape: "square", Machine: syncBusSpec()}
	e.sem <- struct{}{}
	owner := make(chan Result, 1)
	go func() {
		r, _ := e.Evaluate(context.Background(), spec)
		owner <- r
	}()
	waitForEntry(t, e, spec, false)
	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan Result, 1)
	go func() {
		r, _ := e.Evaluate(ctx, spec)
		waiter <- r
	}()
	waitForEntry(t, e, spec, true)
	cancel()
	if r := <-waiter; r.Err != ErrWaitCancelled || r.CacheHit {
		t.Fatalf("cancelled waiter got %+v, want ErrWaitCancelled", r.Answer)
	}
	<-e.sem
	o := <-owner
	if o.Err != nil || o.CacheHit {
		t.Fatalf("owner got %+v, want its own computation", o.Answer)
	}
	// The original computation completed and filled the cache.
	r, err := e.Evaluate(context.Background(), spec)
	if err != nil || !r.CacheHit || r.Alloc != o.Alloc {
		t.Fatalf("in-flight result lost after a cancelled wait: %+v", r.Answer)
	}
}

func TestLRUEviction(t *testing.T) {
	e := New(Options{Workers: 2, CacheSize: 4})
	sp := Space{
		Ns:       []int{64, 128, 256, 512, 1024, 2048},
		Stencils: []string{"5-point"},
		Shapes:   []string{"square"},
		Machines: []core.MachineSpec{{Type: "sync-bus"}},
	}
	if _, err := e.RunSpace(context.Background(), sp); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.CacheLen > 4 {
		t.Fatalf("cache grew to %d entries past its capacity 4", st.CacheLen)
	}
}

func TestOpsAgainstCore(t *testing.T) {
	e := New(Options{})
	ctx := context.Background()
	p := core.MustProblem(256, stencil.FivePoint, partition.Square)
	bus := core.DefaultSyncBus(0)
	machine := machineSpecFor(t, bus)

	r, err := e.Evaluate(ctx, Spec{Op: OpSpeedup, N: 256, Stencil: "5-point",
		Shape: "square", Machine: machine, Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Speedup(p, bus, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Value != want {
		t.Fatalf("OpSpeedup %g != core %g", r.Value, want)
	}

	r, err = e.Evaluate(ctx, Spec{Op: OpMinGrid, N: 16, Stencil: "5-point",
		Shape: "square", Machine: machine, Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	wantG, err := core.MinGridAllProcs(core.MustProblem(16, stencil.FivePoint, partition.Square), bus, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Grid != wantG {
		t.Fatalf("OpMinGrid %d != core %d", r.Grid, wantG)
	}

	r, err = e.Evaluate(ctx, Spec{Op: OpIsoeffGrid, N: 64, Stencil: "5-point",
		Shape: "square", Machine: machine, Procs: 16, Target: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	wantG, err = core.IsoefficiencyGrid(core.MustProblem(64, stencil.FivePoint, partition.Square), bus, 16, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Grid != wantG {
		t.Fatalf("OpIsoeffGrid %d != core %d", r.Grid, wantG)
	}

	r, err = e.Evaluate(ctx, Spec{Op: OpScaled, N: 512, Stencil: "5-point",
		Shape: "square", Machine: machine, PointsPerProc: 64})
	if err != nil {
		t.Fatal(err)
	}
	series, err := core.ScaledSpeedupSeries(p, bus, 64, []int{512})
	if err != nil {
		t.Fatal(err)
	}
	if r.Scaled != series[0] {
		t.Fatalf("OpScaled %+v != core %+v", r.Scaled, series[0])
	}
}

func machineSpecFor(t *testing.T, arch core.Architecture) core.MachineSpec {
	t.Helper()
	spec, err := core.SpecFor(arch)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestStreamSpaceMatchesRunSpace(t *testing.T) {
	spaces := []Space{
		testSpace(),
		{
			// Procs axis of length >1 exercises the batched streaming path.
			Op:       OpSpeedup,
			Ns:       []int{128, 256},
			Stencils: []string{"5-point"},
			Shapes:   []string{"square"},
			Machines: []core.MachineSpec{{Type: "mesh"}, {Type: "sync-bus"}},
			Procs:    []int{2, 8, 32},
		},
	}
	for _, sp := range spaces {
		want, err := New(Options{}).RunSpace(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		e := New(Options{})
		ch, total, err := e.Open(context.Background(), Batch{Space: &sp})
		if err != nil {
			t.Fatal(err)
		}
		if total != sp.Size() {
			t.Fatalf("Open total %d, want %d", total, sp.Size())
		}
		got := make([]Result, total)
		seen := 0
		for c := range ch {
			for _, r := range c.Results {
				got[r.Index] = r
				seen++
			}
			e.Recycle(c)
		}
		if seen != total {
			t.Fatalf("streamed %d results, want %d", seen, total)
		}
		for i := range want {
			if got[i].Value != want[i].Value || got[i].Grid != want[i].Grid ||
				(got[i].Err == nil) != (want[i].Err == nil) {
				t.Fatalf("result %d diverges: stream %+v vs run %+v", i, got[i], want[i])
			}
		}
	}
}

func TestStreamSpaceOverflowRejected(t *testing.T) {
	axis := make([]int, 1<<13)
	names := make([]string, 1<<13)
	machines := make([]core.MachineSpec, 1<<13)
	sp := Space{Ns: axis, Stencils: names, Shapes: names, Machines: machines, Procs: axis}
	if _, _, err := New(Options{}).Open(context.Background(), Batch{Space: &sp}); err == nil {
		t.Fatal("Open expanded an overflowing space")
	}
}

func TestStreamSpaceCancellation(t *testing.T) {
	sp := runAheadSpace(Space{
		Stencils: []string{"5-point", "9-point", "9-star", "13-point"},
		Shapes:   []string{"strip", "square"},
		Machines: []core.MachineSpec{{Type: "sync-bus"}, {Type: "banyan"}},
	}, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := New(Options{Workers: 2})
	ch, total, err := e.Open(ctx, Batch{Space: &sp})
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for c := range ch {
		got += len(c.Results)
		e.Recycle(c)
		cancel()
	}
	// The channel must close promptly after cancellation without
	// delivering the full space.
	if got >= total {
		t.Fatalf("cancelled stream delivered all %d results", total)
	}
}
