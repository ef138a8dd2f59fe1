package solver

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"optspeed/internal/grid"
)

// TestRandomConfigEquivalence: for random grid sizes, worker counts,
// decompositions, and iteration counts, every solver (shared-memory
// strips/blocks, distributed strips, distributed blocks) produces the
// identical grid.
func TestRandomConfigEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	f := func() bool {
		n := 8 + rng.Intn(40)
		iters := 1 + rng.Intn(12)
		workers := 1 + rng.Intn(12)
		k := grid.Laplace5(n)

		ref := grid.MustNew(n)
		ref.SetBoundary(func(i, j int) float64 { return math.Sin(float64(i-j) * 0.3) })
		ref.FillFunc(func(i, j int) float64 { return float64((i*7+j*3)%5) * 0.1 })
		refCopy := func() *grid.Grid { return ref.Clone() }

		serial := refCopy()
		if _, err := Solve(serial, k, nil, Config{Workers: 1, MaxIterations: iters}); err != nil {
			return false
		}

		shared := refCopy()
		d := Decomposition(rng.Intn(2))
		if _, err := Solve(shared, k, nil, Config{Workers: workers, Decomposition: d, MaxIterations: iters}); err != nil {
			return false
		}
		if serial.MaxAbsDiff(shared) != 0 {
			return false
		}

		dist := refCopy()
		if _, err := DistributedSolveBlocks(dist, k, nil, workers, 1, iters); err != nil {
			return false
		}
		if serial.MaxAbsDiff(dist) != 0 {
			return false
		}

		blocks := refCopy()
		py, px := 1+rng.Intn(4), 1+rng.Intn(4)
		if _, err := DistributedSolveBlocks(blocks, k, nil, py, px, iters); err != nil {
			return false
		}
		return serial.MaxAbsDiff(blocks) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMaximumPrinciple: for averaging kernels (positive weights summing
// to 1, no source) every Jacobi iterate stays within the range of the
// initial data and boundary — the discrete maximum principle. Checked
// through the parallel solver.
func TestMaximumPrinciple(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	f := func() bool {
		n := 8 + rng.Intn(30)
		k := grid.Laplace5(n)
		u := grid.MustNew(n)
		lo, hi := math.Inf(1), math.Inf(-1)
		track := func(v float64) {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		u.SetBoundary(func(i, j int) float64 {
			v := rng.Float64()*4 - 2
			return v
		})
		// Track the whole initial state (ghost ring included).
		for i := -u.Halo; i < n+u.Halo; i++ {
			for j := -u.Halo; j < n+u.Halo; j++ {
				track(u.At(i, j))
			}
		}
		if _, err := Solve(u, k, nil, Config{Workers: 4, MaxIterations: 30}); err != nil {
			return false
		}
		const eps = 1e-12
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := u.At(i, j)
				if v < lo-eps || v > hi+eps {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
