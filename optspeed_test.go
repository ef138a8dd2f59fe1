package optspeed

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// The facade tests exercise the public API end to end; the deep behavior
// is tested in the internal packages.

func TestFacadeOptimize(t *testing.T) {
	p, err := NewProblem(256, FivePoint, Square)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := Optimize(p, DefaultSyncBus(0))
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Procs != 14 {
		t.Errorf("paper anchor: P* = %d, want 14", alloc.Procs)
	}
	s, err := OptimalSpeedup(p, DefaultSyncBus(0))
	if err != nil {
		t.Fatal(err)
	}
	if s != alloc.Speedup {
		t.Errorf("OptimalSpeedup %g != alloc.Speedup %g", s, alloc.Speedup)
	}
}

func TestFacadeStencilsAndShapes(t *testing.T) {
	if len(Stencils()) != 4 {
		t.Errorf("Stencils() = %d", len(Stencils()))
	}
	st, err := NewStencil("custom", []Offset{{DI: -1, DJ: 0}, {DI: 1, DJ: 0}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Points() != 3 {
		t.Errorf("custom stencil points %d", st.Points())
	}
	if Strip.String() != "strip" || Square.String() != "square" {
		t.Error("shape constants")
	}
}

func TestFacadePartition(t *testing.T) {
	bands, err := DecomposeStrips(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(bands) != 3 {
		t.Errorf("bands %d", len(bands))
	}
	ws, err := NewWorkingSet(64)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Len() == 0 {
		t.Error("empty working set")
	}
}

func TestFacadeModelQueries(t *testing.T) {
	p := MustProblem(256, FivePoint, Square)
	if _, err := Speedup(p, DefaultHypercube(64), 64); err != nil {
		t.Fatal(err)
	}
	if _, err := MaxGainfulProcs(p, DefaultSyncBus(0)); err != nil {
		t.Fatal(err)
	}
	pStrip := MustProblem(16, FivePoint, Strip)
	if _, err := MinGridAllProcs(pStrip, DefaultSyncBus(0), 8); err != nil {
		t.Fatal(err)
	}
	rows := TableI(1024, FivePoint, DefaultHypercube(0), DefaultSyncBus(0), DefaultAsyncBus(0), DefaultBanyan(0))
	if len(rows) != 4 {
		t.Errorf("TableI rows %d", len(rows))
	}
	if SpeedupGrowth(DefaultHypercube(0), Square) != rows[0].Order {
		t.Error("growth order mismatch")
	}
	if _, err := Leverage(p, DefaultSyncBus(0), LeverageBus); err != nil {
		t.Fatal(err)
	}
	choice, err := BestShape(p, DefaultSyncBus(0))
	if err != nil {
		t.Fatal(err)
	}
	if choice.Best != Square {
		t.Errorf("BestShape on a bus = %s", choice.Best)
	}
	if _, err := Efficiency(p, DefaultSyncBus(0), 4); err != nil {
		t.Fatal(err)
	}
	if _, err := IsoefficiencyGrid(p, DefaultSyncBus(0), 8, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := Elasticity(p, DefaultSyncBus(0), ParamBusCycle); err != nil {
		t.Fatal(err)
	}
	if _, err := OptimizeConstrained(p, DefaultSyncBus(0), Constraints{}); err != nil {
		t.Fatal(err)
	}
	if _, err := OptimizeWithCheck(p, DefaultSyncBus(0), DefaultConvergenceCheck); err != nil {
		t.Fatal(err)
	}
	data, err := MarshalMachine(DefaultSyncBus(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseMachine(data); err != nil {
		t.Fatal(err)
	}
	var spec MachineSpec
	spec.Type = "banyan"
	if _, err := spec.Machine(); err != nil {
		t.Fatal(err)
	}
	_ = FlexBus(30)
	_ = DefaultMesh(16)
	ab := DefaultAsyncBus(0)
	ab.Overlap = OverlapReadsAndWrites
	if err := ab.Validate(); err != nil {
		t.Fatal(err)
	}
	_ = OverlapWrites
}

func TestFacadeSolver(t *testing.T) {
	u, err := NewGrid(32)
	if err != nil {
		t.Fatal(err)
	}
	u.SetConstantBoundary(1)
	res, err := Solve(u, Laplace5(32), nil, SolveConfig{Workers: 4, Decomposition: Blocks, MaxIterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 10 {
		t.Errorf("iterations %d", res.Iterations)
	}
	// DistributedSolve is a strip (workers×1) block grid; a worker
	// count below one runs one strip.
	for _, workers := range []int{4, 0} {
		u2, err := NewGrid(32)
		if err != nil {
			t.Fatal(err)
		}
		u2.SetConstantBoundary(1)
		res, err := DistributedSolve(u2, Laplace5(32), nil, workers, 10)
		if err != nil {
			t.Fatal(err)
		}
		if want := max(workers, 1); res.PartitionsY != want || res.PartitionsX != 1 {
			t.Errorf("DistributedSolve(%d workers) ran %dx%d", workers, res.PartitionsY, res.PartitionsX)
		}
		if d := u.MaxAbsDiff(u2); d != 0 {
			t.Errorf("facade solvers disagree by %g with %d workers", d, workers)
		}
	}
	if _, err := NewGeometricSchedule(4, 1.5); err != nil {
		t.Fatal(err)
	}
	var s Schedule = EveryK{K: 3}
	if !s.CheckAt(3) || s.CheckAt(4) {
		t.Error("EveryK facade")
	}
	var e Schedule = EveryIteration{}
	if !e.CheckAt(1) {
		t.Error("EveryIteration facade")
	}
	_ = Strips
	_ = Laplace9(32)
	_ = Star9(32)
	_ = Averaging(NineStar)
}

// TestIterationModelMatchesRealSolver bridges model and reality: the
// real solver's iteration count scales like the spectral-radius
// prediction (Θ(n²): quadrupling when n doubles).
func TestIterationModelMatchesRealSolver(t *testing.T) {
	run := func(n int) int {
		u, err := NewGrid(n)
		if err != nil {
			t.Fatal(err)
		}
		u.SetConstantBoundary(1)
		res, err := Solve(u, Laplace5(n), nil, SolveConfig{
			Workers:       2,
			MaxIterations: 200000,
			Tolerance:     1e-14,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("n=%d did not converge", n)
		}
		return res.Iterations
	}
	i16, i32 := run(16), run(32)
	measured := float64(i32) / float64(i16)

	p16, err := JacobiIterations(16, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	p32, err := JacobiIterations(32, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	predicted := float64(p32) / float64(p16)
	if measured/predicted < 0.7 || measured/predicted > 1.4 {
		t.Errorf("iteration scaling: measured ratio %.2f vs predicted %.2f", measured, predicted)
	}
}

// TestFacadeTimeToSolution exercises the whole-solve composition.
func TestFacadeTimeToSolution(t *testing.T) {
	p := MustProblem(256, FivePoint, Square)
	st, err := TimeToSolution(p, DefaultSyncBus(0), 1e-6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Procs != 14 || st.Iterations <= 0 || st.Total <= 0 {
		t.Errorf("TimeToSolution: %+v", st)
	}
	cc := DefaultConvergenceCheck
	st2, err := TimeToSolution(p, DefaultSyncBus(0), 1e-6, &cc)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Total <= st.Total {
		t.Error("checked solve not slower")
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(ExperimentIDs()) == 0 {
		t.Fatal("no experiment ids")
	}
	var buf bytes.Buffer
	if err := RunExperiments(&buf, map[string]bool{"table1": true}, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table I") {
		t.Error("experiment output missing Table I")
	}
}

func TestFacadeSweep(t *testing.T) {
	results, err := RunSweep(context.Background(), SweepSpace{
		Ns:       []int{128, 256},
		Stencils: []string{"5-point"},
		Shapes:   []string{"square", "strip"},
		Machines: []MachineSpec{{Type: "sync-bus"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("spec %d: %v", i, r.Err)
		}
		if r.Index != i || r.Alloc.Procs < 1 {
			t.Fatalf("bad result %d: %+v", i, r)
		}
	}
	if len(MachineCatalog()) != 6 {
		t.Fatalf("machine catalog has %d entries, want 6", len(MachineCatalog()))
	}
}
