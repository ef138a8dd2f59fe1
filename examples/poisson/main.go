// Poisson solve with the real goroutine solver on the manufactured
// problem u = sin(πx)·sin(πy): strips vs blocks, the cost of
// convergence checking, the converged solution's error against the
// exact one, and shared memory vs message passing — the paper's model
// world executed on actual hardware.
//
//	go run ./examples/poisson
package main

import (
	"fmt"
	"log"
	"math"
	"runtime"
	"time"

	"optspeed"
)

func buildProblem(n int) (*optspeed.Grid, optspeed.Kernel, *optspeed.Grid) {
	k := optspeed.Laplace5(n)
	h := 1 / float64(n+1)
	f, err := optspeed.NewGrid(n)
	if err != nil {
		log.Fatal(err)
	}
	f.FillFunc(func(i, j int) float64 {
		x, y := float64(i+1)*h, float64(j+1)*h
		return 2 * math.Pi * math.Pi * math.Sin(math.Pi*x) * math.Sin(math.Pi*y)
	})
	u, err := optspeed.NewGrid(n)
	if err != nil {
		log.Fatal(err)
	}
	return u, k, f
}

func main() {
	const n = 384
	const iters = 400
	fmt.Printf("Poisson problem, %dx%d grid, 5-point Jacobi, %d iterations, GOMAXPROCS=%d\n\n",
		n, n, iters, runtime.GOMAXPROCS(0))

	fmt.Println("workers  strips (s/iter)  blocks (s/iter)")
	for _, workers := range []int{1, 2, 4, 8, 16} {
		var perIt [2]float64
		for d, decomp := range []optspeed.SolveConfig{
			{Workers: workers, Decomposition: optspeed.Strips, MaxIterations: iters},
			{Workers: workers, Decomposition: optspeed.Blocks, MaxIterations: iters},
		} {
			u, k, f := buildProblem(n)
			start := time.Now()
			res, err := optspeed.Solve(u, k, f, decomp)
			if err != nil {
				log.Fatal(err)
			}
			perIt[d] = time.Since(start).Seconds() / float64(res.Iterations)
		}
		fmt.Printf("%-8d %-16.3g %.3g\n", workers, perIt[0], perIt[1])
	}
	fmt.Println()

	// Convergence-check schedules: the paper notes checking can add ~50%
	// to the update work for small stencils; scheduled checks amortize it.
	fmt.Println("convergence-check schedules (run to tolerance 1e-12):")
	fmt.Println("schedule         iterations  checks  wall time")
	geo, err := optspeed.NewGeometricSchedule(16, 1.3)
	if err != nil {
		log.Fatal(err)
	}
	var converged *optspeed.Grid
	for _, sc := range []struct {
		name string
		s    optspeed.Schedule
	}{
		{"every iteration", optspeed.EveryIteration{}},
		{"every 25th", optspeed.EveryK{K: 25}},
		{"geometric", geo},
	} {
		u, k, f := buildProblem(128)
		start := time.Now()
		res, err := optspeed.Solve(u, k, f, optspeed.SolveConfig{
			Workers:       4,
			MaxIterations: 100000,
			Tolerance:     1e-12,
			Check:         sc.s,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s %-11d %-7d %v\n", sc.name, res.Iterations, res.Checks, time.Since(start).Round(time.Millisecond))
		converged = u
	}
	// The converged discrete solution is within O(h²) of the exact one.
	exact, err := optspeed.NewGrid(128)
	if err != nil {
		log.Fatal(err)
	}
	h := 1.0 / 129
	exact.FillFunc(func(i, j int) float64 {
		return math.Sin(math.Pi*float64(i+1)*h) * math.Sin(math.Pi*float64(j+1)*h)
	})
	fmt.Printf("max error vs exact solution sin(πx)·sin(πy): %.3g (h² = %.3g)\n\n",
		converged.MaxAbsDiff(exact), h*h)

	// The message-passing solver agrees with the shared-memory one.
	uShared, k, f := buildProblem(128)
	if _, err := optspeed.Solve(uShared, k, f, optspeed.SolveConfig{Workers: 1, MaxIterations: 50}); err != nil {
		log.Fatal(err)
	}
	uDist, k2, f2 := buildProblem(128)
	if _, err := optspeed.DistributedSolve(uDist, k2, f2, 4, 50); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shared-memory vs message-passing max difference after 50 iterations: %g\n",
		uShared.MaxAbsDiff(uDist))
}
