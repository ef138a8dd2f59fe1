package core

import (
	"fmt"
	"math"

	"optspeed/internal/convexopt"
)

// Allocation is the result of optimizing the processor count for a
// problem on an architecture.
type Allocation struct {
	Problem Problem
	Arch    string // architecture name

	Procs     int     // optimal number of processors
	Area      float64 // n²/Procs, the (idealized equal) partition area
	CycleTime float64 // optimized per-iteration time (seconds)
	Speedup   float64 // SerialTime / CycleTime

	UsedAll  bool // Procs equals the admissible maximum
	Single   bool // the whole grid is best kept on one processor
	Interior bool // optimum strictly between 1 and the maximum (bus regime)

	ContinuousArea float64 // closed-form Â/ŝ² when available, else Area
}

// String summarizes the allocation.
func (a Allocation) String() string {
	return fmt.Sprintf("%s on %s: P*=%d (A=%.1f pts), cycle=%.3g s, speedup=%.2f",
		a.Problem, a.Arch, a.Procs, a.Area, a.CycleTime, a.Speedup)
}

// Optimize finds the processor count minimizing the architecture's cycle
// time for the problem, over the admissible range
// [1, min(arch.Procs, shape maximum)]. Every cycle-time model in the
// paper is convex in the partition area on [2, n²] (paper §8), and P = 1
// is a special point — a lone processor pays no communication at all, so
// the curve may jump upward from P = 1 to P = 2 (this is why the paper's
// optimal allocations are "one processor or as many as possible" for the
// distributed machines). The search therefore ternary-searches [2, maxP]
// and compares the result against the single-processor time.
func Optimize(p Problem, arch Architecture) (Allocation, error) {
	if err := p.Validate(); err != nil {
		return Allocation{}, err
	}
	if err := arch.Validate(); err != nil {
		return Allocation{}, err
	}
	return optimizeRange(p, arch, boundedProcs(p, arch)), nil
}

// optimizeRange is Optimize's search over a caller-chosen admissible
// range [1, maxP], on an already-validated problem/machine pair. It
// exists so CriticalPathRatio can search the problem's full
// decomposition range [1, p.MaxProcs()] while keeping the machine's own
// cycle-time model — unboundedCopy would not do: a capped banyan's
// network depth is log₂(NProcs), and removing the cap switches it to
// the growing log₂(P) model.
func optimizeRange(p Problem, arch Architecture, maxP int) Allocation {
	cycle := func(procs int) float64 {
		return arch.CycleTime(p, p.AreaFor(procs))
	}
	best := 1
	if maxP >= 2 {
		// Architectures with a closed-form continuous optimum (the
		// buses) seed the search with P̂ = n²/Â: the seeded search
		// brackets the discrete optimum in O(1) cycle evaluations
		// around the hint instead of ternary-searching the full
		// [2, maxP] range (which spans millions of counts for large
		// square problems). The seeded search self-verifies with
		// adjacent-pair probes, so an approximate hint (e.g. the
		// async bus's c-ignoring closed form) cannot change the
		// result — only the evaluation count.
		if aHat, ok := closedFormArea(arch, p); ok {
			best = convexopt.MinimizeIntSeeded(2, maxP, p.GridPoints()/aHat, cycle)
		} else {
			best = convexopt.MinimizeInt(2, maxP, cycle)
		}
	}
	// Robustness sweep. The ternary search is exact for the paper's
	// convex models; a banyan whose network grows with the decomposition
	// (NProcs = 0) has one extra wrinkle — its communication term
	// log₂(P)/√P rises until P ≈ e² before falling — so the global
	// minimum can hide at a small processor count. Checking P = 1 (no
	// communication at all), the first few counts, and the endpoint
	// costs O(1) evaluations and makes the result exact for every model
	// in the package.
	bestT := cycle(best)
	for _, cand := range []int{1, 2, 3, 4, 5, 6, 7, 8, maxP} {
		if cand < 1 || cand > maxP {
			continue
		}
		if tc := cycle(cand); tc < bestT || (tc == bestT && cand < best) {
			best, bestT = cand, tc
		}
	}
	t := bestT
	alloc := Allocation{
		Problem:        p,
		Arch:           arch.Name(),
		Procs:          best,
		Area:           p.AreaFor(best),
		CycleTime:      t,
		Speedup:        p.SerialTime(arch.Tflp()) / t,
		UsedAll:        best == maxP,
		Single:         best == 1,
		Interior:       best > 1 && best < maxP,
		ContinuousArea: continuousArea(p, arch, best),
	}
	return alloc
}

// MustOptimize is Optimize but panics on error; for examples and tests.
func MustOptimize(p Problem, arch Architecture) Allocation {
	a, err := Optimize(p, arch)
	if err != nil {
		panic(err)
	}
	return a
}

// closedFormArea returns the architecture's closed-form continuous
// optimum area when it provides one and the value is usable as a
// search seed (positive and finite).
func closedFormArea(arch Architecture, p Problem) (float64, bool) {
	type areaOptimizer interface{ OptimalArea(Problem) float64 }
	ao, ok := arch.(areaOptimizer)
	if !ok {
		return 0, false
	}
	a := ao.OptimalArea(p)
	if math.IsNaN(a) || math.IsInf(a, 0) || a <= 0 {
		return 0, false
	}
	return a, true
}

// continuousArea returns the closed-form continuous optimum area when the
// architecture provides one, else the discrete result's area.
func continuousArea(p Problem, arch Architecture, procs int) float64 {
	if a, ok := closedFormArea(arch, p); ok {
		return a
	}
	return p.AreaFor(procs)
}

// CycleCurve samples the cycle time for every processor count in
// [1, maxP]; index i holds the time for i+1 processors. Useful for
// plotting and for verifying convexity/monotonicity claims.
func CycleCurve(p Problem, arch Architecture, maxP int) []float64 {
	if lim := boundedProcs(p, arch); maxP <= 0 || maxP > lim {
		maxP = lim
	}
	out := make([]float64, maxP)
	for procs := 1; procs <= maxP; procs++ {
		out[procs-1] = arch.CycleTime(p, p.AreaFor(procs))
	}
	return out
}
