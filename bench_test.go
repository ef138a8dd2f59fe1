package optspeed

// One benchmark per paper artifact (the experiments RunAll regenerates), plus
// solver and simulator micro-benchmarks. The figure/table benchmarks
// time one full regeneration of the artifact; run with
//
//	go test -bench=. -benchmem
//
// to both regenerate every result and measure the harness.

import (
	"context"
	"io"
	"testing"

	"optspeed/internal/core"
	"optspeed/internal/experiments"
	"optspeed/internal/grid"
	"optspeed/internal/modassign"
	"optspeed/internal/partition"
	"optspeed/internal/simarch"
	"optspeed/internal/solver"
	"optspeed/internal/stencil"
	"optspeed/internal/sweep"
)

// BenchmarkTableI regenerates Table I (experiment T1).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table1(stencil.FivePoint, []int{64, 256, 1024, 4096})
		if len(res.Rows) != 4 {
			b.Fatal("bad Table I")
		}
	}
}

// BenchmarkFig6 regenerates the working-rectangle error study (F6).
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(256)
		if err != nil {
			b.Fatal(err)
		}
		if res.MaxAreaErr >= 0.10 {
			b.Fatalf("area error regression: %g", res.MaxAreaErr)
		}
	}
}

// BenchmarkFig7 regenerates the minimal-gainful-grid curves (F7).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(stencil.FivePoint, 24)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 23 {
			b.Fatal("bad Fig 7")
		}
	}
}

// BenchmarkFig7Anchors checks the paper's 14/22-processor anchors (F7).
func BenchmarkFig7Anchors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a5, err := experiments.Fig7Anchor(stencil.FivePoint)
		if err != nil {
			b.Fatal(err)
		}
		a9, err := experiments.Fig7Anchor(stencil.NinePoint)
		if err != nil {
			b.Fatal(err)
		}
		if a5 != 14 || a9 != 22 {
			b.Fatalf("anchors %d/%d, want 14/22", a5, a9)
		}
	}
}

// BenchmarkFig8 regenerates the optimal speedup/processor curves (F8).
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(stencil.FivePoint); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInText recomputes the §6 worked numbers and ratios (X1-X4).
func BenchmarkInText(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.InText(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeverage recomputes the hardware-leverage table (X2).
func BenchmarkLeverage(b *testing.B) {
	p := core.MustProblem(1024, stencil.FivePoint, partition.Square)
	bus := core.DefaultSyncBus(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.LeverageTable(p, bus); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCByB sweeps the c/b interior-optimum ablation (X3/A1).
func BenchmarkCByB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblateCB(256, []float64{0, 10, 100, 1000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAsyncRatios recomputes the async/sync speedup ratios (X4).
func BenchmarkAsyncRatios(b *testing.B) {
	pSq := core.MustProblem(1024, stencil.FivePoint, partition.Square)
	sync := core.DefaultSyncBus(0)
	async := core.DefaultAsyncBus(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := core.AsyncBusOptimalSquareSpeedup(pSq, async) / core.SyncBusOptimalSquareSpeedup(pSq, sync)
		if r < 1.45 || r > 1.55 {
			b.Fatalf("ratio %g", r)
		}
	}
}

// BenchmarkHypercubeScaling recomputes the linear scaled-speedup series (X5).
func BenchmarkHypercubeScaling(b *testing.B) {
	p := core.MustProblem(256, stencil.FivePoint, partition.Square)
	hc := core.DefaultHypercube(0)
	ns := []int{256, 512, 1024, 2048, 4096}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ScaledSpeedupSeries(p, hc, 64, ns); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBanyanScaling recomputes the n²/log n series (X6).
func BenchmarkBanyanScaling(b *testing.B) {
	p := core.MustProblem(256, stencil.FivePoint, partition.Square)
	by := core.DefaultBanyan(0)
	ns := []int{256, 512, 1024, 2048, 4096}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ScaledSpeedupSeries(p, by, 64, ns); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimValidation runs the full DES-vs-model sweep (V1).
func BenchmarkSimValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, maxRel, err := simarch.ValidateAll(128)
		if err != nil {
			b.Fatal(err)
		}
		if maxRel > 0.05 {
			b.Fatalf("validation regression: %g", maxRel)
		}
	}
}

// BenchmarkAblatePacket sweeps the hypercube packet/β ablation (A2).
func BenchmarkAblatePacket(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblatePacket(256, []float64{1, 8, 64, 512}, []float64{0, 1e-4}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Solver benchmarks (V2): the real goroutine measurements ---

func benchSolver(b *testing.B, n, workers int, d solver.Decomposition) {
	// Several iterations per op amortize the solver's setup (one grid
	// clone) so ns/op ÷ iters is a clean per-iteration time.
	const iters = 8
	k := grid.Laplace5(n)
	u := grid.MustNew(n)
	u.SetConstantBoundary(1)
	b.SetBytes(int64(n) * int64(n) * 8 * iters)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Solve(u, k, nil, solver.Config{
			Workers:       workers,
			Decomposition: d,
			MaxIterations: iters,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverSerial256 is the 1-worker baseline at n=256.
func BenchmarkSolverSerial256(b *testing.B) { benchSolver(b, 256, 1, solver.Strips) }

// BenchmarkSolverStrips256x4 measures 4 strip workers at n=256.
func BenchmarkSolverStrips256x4(b *testing.B) { benchSolver(b, 256, 4, solver.Strips) }

// BenchmarkSolverStrips256x16 measures 16 strip workers at n=256.
func BenchmarkSolverStrips256x16(b *testing.B) { benchSolver(b, 256, 16, solver.Strips) }

// BenchmarkSolverBlocks256x16 measures 16 block workers at n=256.
func BenchmarkSolverBlocks256x16(b *testing.B) { benchSolver(b, 256, 16, solver.Blocks) }

// BenchmarkSolverSerial1024 is the 1-worker baseline at n=1024.
func BenchmarkSolverSerial1024(b *testing.B) { benchSolver(b, 1024, 1, solver.Strips) }

// BenchmarkSolverStrips1024x8 measures 8 strip workers at n=1024.
func BenchmarkSolverStrips1024x8(b *testing.B) { benchSolver(b, 1024, 8, solver.Strips) }

// BenchmarkSolverBlocks1024x8 measures 8 block workers at n=1024.
func BenchmarkSolverBlocks1024x8(b *testing.B) { benchSolver(b, 1024, 8, solver.Blocks) }

// BenchmarkSolveRedBlack512 measures parallel red-black Gauss-Seidel
// at n=512 (8 iterations per op, like the Jacobi benchmarks).
func BenchmarkSolveRedBlack512(b *testing.B) {
	const n, iters = 512, 8
	k := grid.Laplace5(n)
	u := grid.MustNew(n)
	u.SetConstantBoundary(1)
	b.SetBytes(int64(n) * int64(n) * 8 * iters)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.SolveRedBlack(u, k, nil, solver.RedBlackConfig{
			MaxIterations: iters,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverChecked512 measures Jacobi at n=512 with the
// convergence check on: an unreachable tolerance makes the fused
// sweep+residual reduction run every iteration without ever stopping
// early.
func BenchmarkSolverChecked512(b *testing.B) {
	const n, iters = 512, 8
	k := grid.Laplace5(n)
	u := grid.MustNew(n)
	u.SetConstantBoundary(1)
	b.SetBytes(int64(n) * int64(n) * 8 * iters)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Solve(u, k, nil, solver.Config{
			MaxIterations: iters,
			Tolerance:     1e-300,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistributedSolver measures the channel-based solver on a
// strip decomposition (8×1 worker grid, n=512).
func BenchmarkDistributedSolver(b *testing.B) {
	n := 512
	k := grid.Laplace5(n)
	u := grid.MustNew(n)
	u.SetConstantBoundary(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.DistributedSolveBlocks(u, k, nil, 8, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimize measures a single model optimization (the hot path
// of every figure).
func BenchmarkOptimize(b *testing.B) {
	p := core.MustProblem(1024, stencil.FivePoint, partition.Square)
	bus := core.DefaultSyncBus(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(p, bus); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkingSet measures working-rectangle construction at n=1024.
func BenchmarkWorkingSet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := partition.NewWorkingSet(1024); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAllQuiet regenerates every artifact to io.Discard — the
// full reproduction in one number.
func BenchmarkRunAllQuiet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunAll(io.Discard, nil, false); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Sweep engine benchmarks ---

// sweepBenchSpace is a 96-spec Cartesian space covering every machine
// class, both shapes, and a spread of grid sizes.
func sweepBenchSpace() sweep.Space {
	return sweep.Space{
		Ns:       []int{64, 128, 256, 512},
		Stencils: []string{"5-point", "9-point"},
		Shapes:   []string{"strip", "square"},
		Machines: []core.MachineSpec{
			{Type: "hypercube"}, {Type: "mesh"}, {Type: "sync-bus"},
			{Type: "async-bus"}, {Type: "full-async-bus"}, {Type: "banyan"},
		},
	}
}

// BenchmarkSweepEngine measures cold sweep throughput: a fresh engine
// evaluating the full 96-spec space (no cache reuse between iterations).
func BenchmarkSweepEngine(b *testing.B) {
	space := sweepBenchSpace()
	b.ReportMetric(float64(space.Size()), "specs/op")
	for i := 0; i < b.N; i++ {
		eng := sweep.New(sweep.Options{})
		results, err := eng.RunSpace(context.Background(), space)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != space.Size() {
			b.Fatalf("got %d results, want %d", len(results), space.Size())
		}
	}
}

// BenchmarkSweepEngineEvicting measures the cold path of a long-lived
// engine whose cache is full: each iteration runs a new 48-n window of
// a 768-spec optimize space (the shape of perfbench's sweep-cold op),
// so every spec misses and every miss evicts. BenchmarkSweepEngine
// builds a fresh engine per iteration and never evicts. The windows
// cycle through more specs than the cache holds, so a window is always
// evicted before it comes round again.
func BenchmarkSweepEngineEvicting(b *testing.B) {
	const (
		nsPerWindow = 48
		n0          = 300
	)
	space := sweep.Space{
		Stencils: []string{"5-point", "9-point"},
		Shapes:   []string{"strip", "square"},
		Machines: []core.MachineSpec{{Type: "sync-bus"}, {Type: "async-bus"}, {Type: "hypercube"}, {Type: "mesh"}},
	}
	specsPerWindow := nsPerWindow * len(space.Stencils) * len(space.Shapes) * len(space.Machines)
	// One and a third times the capacity, slack included, between
	// repeats of a window.
	windows := (sweep.DefaultCacheSize + sweep.DefaultCacheSize/8) * 4 / 3 / specsPerWindow
	eng := sweep.New(sweep.Options{})
	run := func(w int) {
		space.Ns = space.Ns[:0]
		for k := 0; k < nsPerWindow; k++ {
			space.Ns = append(space.Ns, n0+(w%windows)*nsPerWindow+k)
		}
		results, err := eng.RunSpace(context.Background(), space)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != specsPerWindow {
			b.Fatalf("got %d results, want %d", len(results), specsPerWindow)
		}
	}
	for w := 0; w < windows; w++ {
		run(w)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(specsPerWindow), "specs/op")
	if st := eng.Stats(); st.CacheHits != 0 {
		b.Fatalf("%d cache hits: a window was still resident when it came round again", st.CacheHits)
	}
}

// BenchmarkSweepEngineWarm measures the memoized path: the same space
// answered entirely from the LRU cache.
func BenchmarkSweepEngineWarm(b *testing.B) {
	space := sweepBenchSpace()
	eng := sweep.New(sweep.Options{})
	if _, err := eng.RunSpace(context.Background(), space); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunSpace(context.Background(), space); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSpeedupBatched measures the OpSpeedup-over-Procs fast
// path: one cycle curve per (problem, machine) group fanned across a
// dense 64-count processor axis, cold cache.
func BenchmarkSweepSpeedupBatched(b *testing.B) {
	procs := make([]int, 64)
	for i := range procs {
		procs[i] = i + 1
	}
	space := sweep.Space{
		Op:       sweep.OpSpeedup,
		Ns:       []int{256},
		Stencils: []string{"5-point"},
		Shapes:   []string{"strip", "square"},
		Machines: []core.MachineSpec{
			{Type: "hypercube"}, {Type: "mesh"}, {Type: "sync-bus"},
			{Type: "async-bus"}, {Type: "full-async-bus"}, {Type: "banyan"},
		},
		Procs: procs,
	}
	b.ReportMetric(float64(space.Size()), "specs/op")
	for i := 0; i < b.N; i++ {
		eng := sweep.New(sweep.Options{})
		if _, err := eng.RunSpace(context.Background(), space); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Allocation-budget benchmarks (run with -benchmem) ---
//
// The hot-path allocation budget (spec resolution + cache lookup ≤ 2
// allocs/op) is asserted by TestResolveAndLookupAllocBudget in
// internal/sweep; these benchmarks track the same quantities over time.

// BenchmarkSpecResolution measures one spec validation/resolution
// (problem, canonical machine, struct cache key — no evaluation).
func BenchmarkSpecResolution(b *testing.B) {
	spec := sweep.Spec{N: 256, Stencil: "5-point", Shape: "square",
		Machine: core.MachineSpec{Type: "sync-bus"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := spec.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheLookupWarm measures a full warm engine round trip for
// one spec: resolution, sharded-cache hit, result assembly.
func BenchmarkCacheLookupWarm(b *testing.B) {
	eng := sweep.New(sweep.Options{})
	spec := sweep.Spec{N: 256, Stencil: "5-point", Shape: "square",
		Machine: core.MachineSpec{Type: "sync-bus"}}
	if _, err := eng.Evaluate(context.Background(), spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Evaluate(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benchmarks ---

func benchSweep(b *testing.B, k grid.Kernel, n int) {
	src := grid.MustNew(n)
	src.SetConstantBoundary(1)
	dst := grid.MustNew(n)
	b.SetBytes(int64(n) * int64(n) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := grid.Sweep(dst, src, k, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweep5Point measures the 5-point Jacobi kernel at n=512.
func BenchmarkSweep5Point(b *testing.B) { benchSweep(b, grid.Laplace5(512), 512) }

// BenchmarkSweep9Point measures the 9-point kernel at n=512.
func BenchmarkSweep9Point(b *testing.B) { benchSweep(b, grid.Laplace9(512), 512) }

// BenchmarkSweep9Star measures the fourth-order star kernel at n=512.
func BenchmarkSweep9Star(b *testing.B) { benchSweep(b, grid.Star9(512), 512) }

// BenchmarkBanyanRoute measures one 1024-way omega-network permutation
// routing with conflict detection.
func BenchmarkBanyanRoute(b *testing.B) {
	const n = 1024
	dest := make([]int, n)
	for i := range dest {
		dest[i] = (i + 1) % n
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := simarch.RoutePermutation(n, dest); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllReduce measures the simulated 256-node recursive-doubling
// all-reduce.
func BenchmarkAllReduce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := simarch.SimulateAllReduce(256, core.DefaultAlpha, core.DefaultBeta); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyncBusSim measures one simulated synchronous-bus iteration
// (64 processors, strips).
func BenchmarkSyncBusSim(b *testing.B) {
	p := core.MustProblem(128, stencil.FivePoint, partition.Strip)
	bus := core.DefaultSyncBus(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simarch.SimulateSyncBus(p, bus, 64, simarch.BulkTransfers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModuleAssignment measures the §2 baseline theorem check.
func BenchmarkModuleAssignment(b *testing.B) {
	prog := modassign.Program{Modules: 4096, ModuleTime: 1, CommCost: 1e-4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := modassign.VerifyExtremal(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIsoefficiency measures one isoefficiency-grid search.
func BenchmarkIsoefficiency(b *testing.B) {
	p := core.MustProblem(64, stencil.FivePoint, partition.Square)
	bus := core.DefaultSyncBus(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.IsoefficiencyGrid(p, bus, 32, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}
