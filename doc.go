// Package optspeed reproduces Nicol & Willard, "Problem Size, Parallel
// Architecture, and Optimal Speedup" (ICPP 1987 / ICASE 87-7): an
// analytic performance model for parallel iterative elliptic PDE solvers
// that predicts, for a given grid size, stencil, partition shape, and
// parallel architecture, the optimal number of processors and the optimal
// speedup.
//
// The package is a facade over the implementation packages:
//
//   - the cost model and optimizers (internal/core),
//   - stencils and their perimeter counts k(P,S) (internal/stencil),
//   - strip and working-rectangle decompositions (internal/partition),
//   - a dense grid with Jacobi/SOR kernels (internal/grid),
//   - a real goroutine parallel solver (internal/solver),
//   - discrete-event architecture simulators (internal/simarch),
//   - the sharded, memoizing parallel sweep engine (internal/sweep),
//   - the HTTP optimization service served by cmd/optspeedd
//     (internal/service),
//   - the paper's figures/tables as runnable experiments, which generate
//     their point grids through the sweep engine (internal/experiments).
//
// # Quick start
//
//	p := optspeed.NewProblem(512, optspeed.FivePoint, optspeed.Square)
//	bus := optspeed.DefaultSyncBus(0) // 0 = unbounded processors
//	alloc, err := optspeed.Optimize(p, bus)
//	// alloc.Procs is the optimal processor count; alloc.Speedup the
//	// optimal speedup; alloc.Interior reports a strictly interior
//	// optimum (possible only on buses).
//
// The model's headline results: hypercube and mesh machines want all
// processors (or exactly one) and scale speedup linearly in the grid
// size n²; banyan switching networks scale as n²/log n; shared buses
// admit interior optima and scale only as (n²)^{1/3} for square
// partitions and (n²)^{1/4} for strips. cmd/paperfigs regenerates the
// full reproduction (internal/experiments).
package optspeed
