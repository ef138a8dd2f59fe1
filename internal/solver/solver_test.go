package solver

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"optspeed/internal/grid"
	"optspeed/internal/stencil"
)

// testProblem builds a Poisson problem with a manufactured solution.
func testProblem(n int) (*grid.Grid, grid.Kernel, *grid.Grid) {
	k := grid.Laplace5(n)
	h := 1 / float64(n+1)
	f := grid.MustNew(n)
	f.FillFunc(func(i, j int) float64 {
		x := float64(i+1) * h
		y := float64(j+1) * h
		return 2 * math.Pi * math.Pi * math.Sin(math.Pi*x) * math.Sin(math.Pi*y)
	})
	u := grid.MustNew(n)
	return u, k, f
}

// TestParallelMatchesSerialBitExact: Jacobi depends only on the previous
// iterate, so any decomposition must produce bit-identical grids.
func TestParallelMatchesSerialBitExact(t *testing.T) {
	n := 33
	for _, d := range []Decomposition{Strips, Blocks} {
		for _, workers := range []int{2, 3, 4, 7, 8, 16} {
			uSerial, k, f := testProblem(n)
			if _, err := Solve(uSerial, k, f, Config{Workers: 1, MaxIterations: 60}); err != nil {
				t.Fatal(err)
			}
			uPar, _, _ := testProblem(n)
			res, err := Solve(uPar, k, f, Config{Workers: workers, Decomposition: d, MaxIterations: 60})
			if err != nil {
				t.Fatal(err)
			}
			if res.Workers < 1 {
				t.Fatalf("workers = %d", res.Workers)
			}
			if diff := uSerial.MaxAbsDiff(uPar); diff != 0 {
				t.Errorf("%s workers=%d: max diff %g, want bit-identical", d, workers, diff)
			}
		}
	}
}

// TestDistributedMatchesShared: the channel-based message-passing solver
// on a strip (workers×1) worker grid agrees bit-exactly with the
// shared-memory solver.
func TestDistributedMatchesShared(t *testing.T) {
	n := 32
	for _, st := range []stencil.Stencil{stencil.FivePoint, stencil.NineStar} {
		var k grid.Kernel
		switch st.Name() {
		case "5-point":
			k = grid.Laplace5(n)
		default:
			k = grid.Star9(n)
		}
		for _, workers := range []int{1, 2, 4, 7} {
			uShared := grid.MustNew(n)
			uShared.SetConstantBoundary(1)
			if _, err := Solve(uShared, k, nil, Config{Workers: 1, MaxIterations: 25}); err != nil {
				t.Fatal(err)
			}
			uDist := grid.MustNew(n)
			uDist.SetConstantBoundary(1)
			res, err := DistributedSolveBlocks(uDist, k, nil, workers, 1, 25)
			if err != nil {
				t.Fatal(err)
			}
			if diff := uShared.MaxAbsDiff(uDist); diff != 0 {
				t.Errorf("%s workers=%d (used %d): max diff %g",
					st.Name(), workers, res.Workers, diff)
			}
		}
	}
}

// TestDistributedWithRHS: the message-passing solver carries the source
// term correctly.
func TestDistributedWithRHS(t *testing.T) {
	n := 24
	uShared, k, f := testProblem(n)
	if _, err := Solve(uShared, k, f, Config{Workers: 1, MaxIterations: 40}); err != nil {
		t.Fatal(err)
	}
	uDist, _, f2 := testProblem(n)
	if _, err := DistributedSolveBlocks(uDist, k, f2, 4, 1, 40); err != nil {
		t.Fatal(err)
	}
	if diff := uShared.MaxAbsDiff(uDist); diff != 0 {
		t.Errorf("RHS distributed diff %g", diff)
	}
}

// TestConvergence: the solver converges on the manufactured Poisson
// problem and reports it.
func TestConvergence(t *testing.T) {
	n := 24
	u, k, f := testProblem(n)
	res, err := Solve(u, k, f, Config{
		Workers:       4,
		MaxIterations: 20000,
		Tolerance:     1e-16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if res.FinalDelta >= 1e-16 {
		t.Errorf("final delta %g", res.FinalDelta)
	}
	// Solution matches the manufactured answer to discretization error.
	h := 1 / float64(n+1)
	var maxErr float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x, y := float64(i+1)*h, float64(j+1)*h
			exact := math.Sin(math.Pi*x) * math.Sin(math.Pi*y)
			maxErr = math.Max(maxErr, math.Abs(u.At(i, j)-exact))
		}
	}
	if maxErr > 5*h*h*math.Pi*math.Pi {
		t.Errorf("solution error %g too large", maxErr)
	}
}

// TestScheduleReducesChecks: every-k and geometric schedules perform far
// fewer checks than every-iteration for the same convergence outcome.
func TestScheduleReducesChecks(t *testing.T) {
	n := 24
	run := func(s Schedule) Result {
		u, k, f := testProblem(n)
		res, err := Solve(u, k, f, Config{
			Workers:       2,
			MaxIterations: 20000,
			Tolerance:     1e-14,
			Check:         s,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("schedule %s did not converge", s.Name())
		}
		return res
	}
	every := run(EveryIteration{})
	everyK := run(EveryK{K: 25})
	geo, err := NewGeometric(8, 1.4)
	if err != nil {
		t.Fatal(err)
	}
	geometric := run(geo)

	if everyK.Checks >= every.Checks/10 {
		t.Errorf("every-25 checks %d not ≪ every-iteration %d", everyK.Checks, every.Checks)
	}
	if geometric.Checks >= every.Checks/10 {
		t.Errorf("geometric checks %d not ≪ every-iteration %d", geometric.Checks, every.Checks)
	}
	// Overshoot bounded: every-k converges within K−1 extra iterations.
	if everyK.Iterations > every.Iterations+24 {
		t.Errorf("every-25 overshot: %d vs %d", everyK.Iterations, every.Iterations)
	}
}

// TestScheduleCheckAt: unit behavior of the schedules.
func TestScheduleCheckAt(t *testing.T) {
	if !(EveryIteration{}).CheckAt(1) || !(EveryIteration{}).CheckAt(999) {
		t.Error("EveryIteration missed")
	}
	s := EveryK{K: 5}
	for i := 1; i <= 20; i++ {
		want := i%5 == 0
		if s.CheckAt(i) != want {
			t.Errorf("EveryK(5).CheckAt(%d) = %v", i, !want)
		}
	}
	if (EveryK{K: 0}).CheckAt(1) != true {
		t.Error("EveryK(0) should degrade to every iteration")
	}
	g, err := NewGeometric(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var checked []int
	for i := 1; i <= 40; i++ {
		if g.CheckAt(i) {
			checked = append(checked, i)
		}
	}
	want := []int{4, 8, 16, 32}
	if len(checked) != len(want) {
		t.Fatalf("geometric checked %v, want %v", checked, want)
	}
	for i := range want {
		if checked[i] != want[i] {
			t.Fatalf("geometric checked %v, want %v", checked, want)
		}
	}
}

func TestNewGeometricValidation(t *testing.T) {
	if _, err := NewGeometric(0, 2); err == nil {
		t.Error("start 0 accepted")
	}
	if _, err := NewGeometric(1, 1); err == nil {
		t.Error("ratio 1 accepted")
	}
}

// TestCheckCost: the schedule cost model orders schedules correctly.
func TestCheckCost(t *testing.T) {
	const r = 0.5 // paper: checks ≈ 50% of update work for 5-point
	every := CheckCost(EveryIteration{}, 1000, r)
	if math.Abs(every-1.0/3) > 1e-12 { // 0.5/(1+0.5)
		t.Errorf("every-iteration cost %g, want 1/3", every)
	}
	k10 := CheckCost(EveryK{K: 10}, 1000, r)
	if k10 >= every/5 {
		t.Errorf("every-10 cost %g not ≪ %g", k10, every)
	}
	g, _ := NewGeometric(4, 1.5)
	geo := CheckCost(g, 1000, r)
	if geo >= k10 {
		t.Errorf("geometric cost %g not below every-10 %g", geo, k10)
	}
}

// TestSolveDefaults: zero-value config picks sane defaults.
func TestSolveDefaults(t *testing.T) {
	u, k, f := testProblem(16)
	res, err := Solve(u, k, f, Config{MaxIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers < 1 || res.Iterations != 5 {
		t.Errorf("defaults: %+v", res)
	}
	if res.Converged {
		t.Error("claimed convergence with Tolerance = 0")
	}
}

// TestSolveErrors.
func TestSolveErrors(t *testing.T) {
	if _, err := Solve(nil, grid.Laplace5(8), nil, Config{}); err == nil {
		t.Error("nil grid accepted")
	}
	u := grid.MustNew(8)
	if _, err := Solve(u, grid.Laplace5(8), nil, Config{Decomposition: Decomposition(9), MaxIterations: 1}); err == nil {
		t.Error("bad decomposition accepted")
	}
}

// TestWorkerClamping: more workers than rows clamps to rows.
func TestWorkerClamping(t *testing.T) {
	u, k, f := testProblem(8)
	res, err := Solve(u, k, f, Config{Workers: 64, MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers > 8 {
		t.Errorf("workers %d > rows", res.Workers)
	}
}

// TestBlockGrid: factorization is near-square and exact.
func TestBlockGrid(t *testing.T) {
	cases := map[int][2]int{
		1: {1, 1}, 2: {2, 1}, 4: {2, 2}, 6: {3, 2}, 7: {7, 1},
		12: {4, 3}, 16: {4, 4}, 36: {6, 6},
	}
	for w, want := range cases {
		py, px := blockGrid(w)
		if py != want[0] || px != want[1] {
			t.Errorf("blockGrid(%d) = %d,%d want %d,%d", w, py, px, want[0], want[1])
		}
	}
}

// Property: for random worker counts and decompositions, regions tile
// the grid exactly.
func TestRegionsTileProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	f := func() bool {
		n := 4 + rng.Intn(60)
		workers := 1 + rng.Intn(n)
		d := Decomposition(rng.Intn(2))
		regions, px, py, err := decompose(n, workers, d)
		if err != nil {
			return false
		}
		if d == Blocks && px*py != workers {
			return false
		}
		covered := make([]int, n*n)
		for _, r := range regions {
			if r.area() < 1 {
				return false
			}
			for i := r.r0; i < r.r1; i++ {
				for j := r.c0; j < r.c1; j++ {
					covered[i*n+j]++
				}
			}
		}
		for _, c := range covered {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestDecompositionString.
func TestDecompositionString(t *testing.T) {
	if Strips.String() != "strips" || Blocks.String() != "blocks" {
		t.Error("decomposition strings")
	}
	if Decomposition(5).String() == "" {
		t.Error("unknown decomposition string empty")
	}
}
