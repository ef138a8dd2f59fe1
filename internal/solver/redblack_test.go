package solver

import (
	"math"
	"testing"

	"optspeed/internal/grid"
)

// TestRedBlackParallelMatchesSerial: the color barriers make the
// parallel red-black sweep bit-identical to the 1-worker one.
func TestRedBlackParallelMatchesSerial(t *testing.T) {
	n := 33
	for _, workers := range []int{2, 3, 4, 8} {
		uSerial, k, f := testProblem(n)
		if _, err := SolveRedBlack(uSerial, k, f, RedBlackConfig{Workers: 1, MaxIterations: 40}); err != nil {
			t.Fatal(err)
		}
		uPar, _, _ := testProblem(n)
		if _, err := SolveRedBlack(uPar, k, f, RedBlackConfig{Workers: workers, MaxIterations: 40}); err != nil {
			t.Fatal(err)
		}
		if d := uSerial.MaxAbsDiff(uPar); d != 0 {
			t.Errorf("workers=%d: diff %g", workers, d)
		}
	}
}

// TestRedBlackConvergesFasterThanJacobi: per iteration, red-black
// Gauss-Seidel reduces error roughly twice as fast.
func TestRedBlackConvergesFasterThanJacobi(t *testing.T) {
	n := 24
	const iters = 200
	exact := func(u *grid.Grid) float64 {
		h := 1 / float64(n+1)
		m, _ := grid.ErrorAgainst(u, func(i, j int) float64 {
			x, y := float64(i+1)*h, float64(j+1)*h
			return math.Sin(math.Pi*x) * math.Sin(math.Pi*y)
		})
		return m
	}
	uJac, k, f := testProblem(n)
	if _, err := Solve(uJac, k, f, Config{Workers: 2, MaxIterations: iters}); err != nil {
		t.Fatal(err)
	}
	uRB, _, _ := testProblem(n)
	if _, err := SolveRedBlack(uRB, k, f, RedBlackConfig{Workers: 2, MaxIterations: iters}); err != nil {
		t.Fatal(err)
	}
	if exact(uRB) >= exact(uJac) {
		t.Errorf("red-black error %g not below Jacobi %g", exact(uRB), exact(uJac))
	}
}

// TestRedBlackSORConverges: over-relaxation reaches the tolerance in far
// fewer iterations than plain Gauss-Seidel on the model problem.
func TestRedBlackSORConverges(t *testing.T) {
	n := 32
	// Optimal SOR omega for the model problem ≈ 2/(1+sin(πh)).
	h := 1 / float64(n+1)
	omega := 2 / (1 + math.Sin(math.Pi*h))

	uGS, k, f := testProblem(n)
	gs, err := SolveRedBlack(uGS, k, f, RedBlackConfig{
		Workers: 2, MaxIterations: 20000, Tolerance: 1e-18,
	})
	if err != nil {
		t.Fatal(err)
	}
	uSOR, _, _ := testProblem(n)
	sor, err := SolveRedBlack(uSOR, k, f, RedBlackConfig{
		Workers: 2, MaxIterations: 20000, Tolerance: 1e-18, Omega: omega,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !gs.Converged || !sor.Converged {
		t.Fatalf("not converged: gs=%v sor=%v", gs.Converged, sor.Converged)
	}
	if sor.Iterations >= gs.Iterations/2 {
		t.Errorf("SOR iterations %d not well below GS %d", sor.Iterations, gs.Iterations)
	}
}

func TestRedBlackValidation(t *testing.T) {
	u, k, f := testProblem(16)
	if _, err := SolveRedBlack(nil, k, f, RedBlackConfig{}); err == nil {
		t.Error("nil grid accepted")
	}
	if _, err := SolveRedBlack(u, grid.Star9(16), f, RedBlackConfig{MaxIterations: 1}); err == nil {
		t.Error("radius-2 stencil accepted")
	}
	if _, err := SolveRedBlack(u, grid.Laplace9(16), f, RedBlackConfig{MaxIterations: 1}); err == nil {
		t.Error("diagonal stencil accepted")
	}
	if _, err := SolveRedBlack(u, k, f, RedBlackConfig{Omega: 2.5, MaxIterations: 1}); err == nil {
		t.Error("omega ≥ 2 accepted")
	}
	if _, err := SolveRedBlack(u, k, f, RedBlackConfig{Omega: -1, MaxIterations: 1}); err == nil {
		t.Error("negative omega accepted")
	}
}

// TestDistributedWordCount: the instrumented message-passing solver
// ships exactly the model's volume — 2·(workers−1) boundary exchanges of
// halo rows per iteration (each internal boundary crossed once in each
// direction).
func TestDistributedWordCount(t *testing.T) {
	n := 32
	for _, workers := range []int{2, 4, 8} {
		u := grid.MustNew(n)
		u.SetConstantBoundary(1)
		k := grid.Laplace5(n)
		const iters = 7
		res, err := DistributedSolveBlocks(u, k, nil, workers, 1, iters)
		if err != nil {
			t.Fatal(err)
		}
		halo := k.Stencil.RowRadius()
		rowWords := int64(n + 2*u.Halo)
		want := int64(iters) * 2 * int64(res.Workers-1) * int64(halo) * rowWords
		if res.WordsSent != want {
			t.Errorf("workers=%d: WordsSent=%d, want %d", workers, res.WordsSent, want)
		}
	}
}

// TestResidualDecreases: the fixed-point residual decreases across
// solver iterations.
func TestResidualDecreases(t *testing.T) {
	n := 24
	u, k, f := testProblem(n)
	max0, l20, err := grid.Residual(u, k, f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(u, k, f, Config{Workers: 2, MaxIterations: 200}); err != nil {
		t.Fatal(err)
	}
	max1, l21, err := grid.Residual(u, k, f)
	if err != nil {
		t.Fatal(err)
	}
	if !(max1 < max0 && l21 < l20) {
		t.Errorf("residuals did not decrease: (%g,%g) → (%g,%g)", max0, l20, max1, l21)
	}
	if err := u.CheckFinite(); err != nil {
		t.Error(err)
	}
}
