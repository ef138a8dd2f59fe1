package core

import (
	"math"
	"testing"

	"optspeed/internal/partition"
	"optspeed/internal/stencil"
)

// This file pins the paper's published numbers and ratios. Each test
// names the claim it reproduces.

// TestFig7Anchors: "a 256×256 grid with square partitions and a 5-point
// stencil should be solved on 1 to 14 processors; the same grid with a
// 9-point stencil should use 1 to 22 processors" (§6.1). The calibrated
// machine (internal/core/machine.go) must reproduce both anchors exactly.
func TestFig7Anchors(t *testing.T) {
	bus := DefaultSyncBus(0)
	p5 := MustProblem(256, stencil.FivePoint, partition.Square)
	got5, err := MaxGainfulProcs(p5, bus)
	if err != nil {
		t.Fatal(err)
	}
	if got5 != 14 {
		t.Errorf("5-point anchor: MaxGainfulProcs = %d, want 14", got5)
	}
	p9 := MustProblem(256, stencil.NinePoint, partition.Square)
	got9, err := MaxGainfulProcs(p9, bus)
	if err != nil {
		t.Fatal(err)
	}
	if got9 != 22 {
		t.Errorf("9-point anchor: MaxGainfulProcs = %d, want 22", got9)
	}
}

// TestStripAreaSqrt2Ratio: the synchronous-bus optimal strip area is
// exactly √2 larger than the asynchronous one (§6.2: "The corresponding
// area given by equation (3) for a synchronous bus is exactly a factor
// of √2 larger").
func TestStripAreaSqrt2Ratio(t *testing.T) {
	p := MustProblem(512, stencil.FivePoint, partition.Strip)
	sync := DefaultSyncBus(0)
	async := DefaultAsyncBus(0)
	ratio := sync.OptimalStripArea(p) / async.OptimalStripArea(p)
	if math.Abs(ratio-math.Sqrt2) > 1e-12 {
		t.Errorf("area ratio = %.12f, want √2", ratio)
	}
}

// TestSquareAreaIdentical: the asynchronous-bus optimal square side
// equals the synchronous one (§6.2: "This area is identical to that
// calculated for the synchronous bus case").
func TestSquareAreaIdentical(t *testing.T) {
	p := MustProblem(512, stencil.FivePoint, partition.Square)
	sync := DefaultSyncBus(0)
	async := DefaultAsyncBus(0)
	if s, a := sync.OptimalSquareSide(p), async.OptimalSquareSide(p); math.Abs(s-a) > 1e-12*s {
		t.Errorf("sides differ: sync %g, async %g", s, a)
	}
}

// TestAsyncSpeedupRatios: optimal async speedup is √2× the sync speedup
// for strips and 1.5× for squares (§6.2), and the fully-overlapped
// variant buys a further 2^{1/3} ≈ 1.26 on squares.
func TestAsyncSpeedupRatios(t *testing.T) {
	sync := DefaultSyncBus(0)
	async := DefaultAsyncBus(0)
	full := AsyncBus{TflpTime: DefaultTflp, B: DefaultBusCycle, NProcs: 0, Overlap: OverlapReadsAndWrites}

	pStrip := MustProblem(1024, stencil.FivePoint, partition.Strip)
	sSync := SyncBusOptimalStripSpeedup(pStrip, sync)
	sAsync := AsyncBusOptimalStripSpeedup(pStrip, async)
	if r := sAsync / sSync; math.Abs(r-math.Sqrt2) > 0.01 {
		t.Errorf("strip async/sync speedup ratio = %.4f, want √2", r)
	}

	pSq := MustProblem(1024, stencil.FivePoint, partition.Square)
	qSync := SyncBusOptimalSquareSpeedup(pSq, sync)
	qAsync := AsyncBusOptimalSquareSpeedup(pSq, async)
	if r := qAsync / qSync; math.Abs(r-1.5) > 0.01 {
		t.Errorf("square async/sync speedup ratio = %.4f, want 1.5", r)
	}

	qFull := AsyncBusOptimalSquareSpeedup(pSq, full)
	if r := qFull / qAsync; math.Abs(r-math.Cbrt(2)) > 0.01 {
		t.Errorf("square full/async speedup ratio = %.4f, want 2^(1/3)≈1.26", r)
	}
}

// TestSquareCommTwiceCompute: at the synchronous-bus square optimum with
// c = 0, "the communication cost is twice that of the computation cost"
// (§6.1).
func TestSquareCommTwiceCompute(t *testing.T) {
	p := MustProblem(512, stencil.FivePoint, partition.Square)
	bus := DefaultSyncBus(0)
	side := bus.OptimalSquareSide(p)
	area := side * side
	comp := p.Flops() * area * bus.TflpTime
	comm := bus.CommTime(p, area)
	if r := comm / comp; math.Abs(r-2) > 1e-9 {
		t.Errorf("comm/comp at optimum = %.6f, want 2", r)
	}
}

// TestLeverageRatios: §6.1's hardware leverage numbers. Squares: doubling
// bus speed → 63% cycle time, doubling flop speed → 79%. Strips: both
// → 1/√2 ≈ 71%.
func TestLeverageRatios(t *testing.T) {
	bus := DefaultSyncBus(0)
	cases := []struct {
		sh   partition.Shape
		kind LeverageKind
	}{
		{partition.Square, LeverageBus},
		{partition.Square, LeverageFlops},
		{partition.Strip, LeverageBus},
		{partition.Strip, LeverageFlops},
	}
	for _, tc := range cases {
		p := MustProblem(1024, stencil.FivePoint, tc.sh)
		res, err := Leverage(p, bus, tc.kind)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := theoreticalBusLeverage(tc.sh, tc.kind)
		if !ok {
			t.Fatalf("no theoretical value for %s/%s", tc.sh, tc.kind)
		}
		if math.Abs(res.Ratio-want) > 0.01 {
			t.Errorf("%s %s: ratio %.4f, want %.4f", tc.sh, tc.kind, res.Ratio, want)
		}
	}
}

// TestOverheadLeverageLinear: "decreasing c has a linear impact" on the
// strip overhead term (§6.1). With c dominating (c ≫ b·P at the optimum),
// halving c approaches halving the whole communication cost; we assert
// the weaker paper form — the cycle-time reduction from halving c equals
// half the overhead term exactly.
func TestOverheadLeverageLinear(t *testing.T) {
	// n must be large enough that the parallel optimum beats one
	// processor despite c/b = 1000 (serial time grows like n², the
	// overhead term like n).
	p := MustProblem(16384, stencil.FivePoint, partition.Strip)
	bus := FlexBus(0) // c/b = 1000
	res, err := Leverage(p, bus, LeverageOverhead)
	if err != nil {
		t.Fatal(err)
	}
	// Expected: optimum area unaffected by c (paper: "the overhead cost c
	// does not affect Â"), so Δt = ω·2n·k·(c/2).
	k := float64(p.K())
	deltaWant := bus.wordFactor() * 2 * float64(p.N) * k * bus.C / 2
	delta := res.Before - res.After
	if math.Abs(delta-deltaWant) > 1e-9*res.Before {
		t.Errorf("Δt = %g, want %g", delta, deltaWant)
	}
}

// TestCOverBCondition: the paper's necessary condition for an interior
// square-bus optimum is c/b ≤ P (§6.1). On a FLEX/32-like machine
// (c/b = 1000) with ≤ 30 processors, all processors should always be
// used.
func TestCOverBCondition(t *testing.T) {
	flex := FlexBus(30)
	if flex.InteriorOptimumPossible(30) {
		t.Error("FLEX/32 c/b=1000 reports interior optimum possible at P=30")
	}
	if !flex.InteriorOptimumPossible(2000) {
		t.Error("interior optimum impossible even at P=2000")
	}
	// Empirical check: for every grid size tried, the FLEX optimum uses
	// all 30 processors (or one — never strictly between).
	for _, n := range []int{64, 128, 256, 512, 1024} {
		p := MustProblem(n, stencil.FivePoint, partition.Square)
		alloc := MustOptimize(p, FlexBus(30))
		if alloc.Interior {
			t.Errorf("n=%d: interior optimum P=%d on FLEX-like bus", n, alloc.Procs)
		}
	}
}

// TestSpeedupApproachesN: for fixed N, speedup → N as n² → ∞, for every
// architecture (§4, §6.1: "approaches N as n²→∞"). The bus convergence is
// O(1/n) with constant bN²k/(E·T), so large grids are needed; we also
// check monotone approach.
func TestSpeedupApproachesN(t *testing.T) {
	const N = 16
	for _, arch := range allArchs(N) {
		for _, sh := range partition.Shapes() {
			sPrev := 0.0
			for _, n := range []int{4096, 16384, 65536} {
				p := MustProblem(n, stencil.FivePoint, sh)
				s, err := Speedup(p, arch, N)
				if err != nil {
					t.Fatal(err)
				}
				if s > N+1e-9 {
					t.Errorf("%s/%s n=%d: speedup %.3f exceeds N", arch.Name(), sh, n, s)
				}
				if s < sPrev {
					t.Errorf("%s/%s n=%d: speedup %.3f not monotone toward N", arch.Name(), sh, n, s)
				}
				sPrev = s
			}
			if sPrev < 0.93*N {
				t.Errorf("%s/%s: speedup at n=65536 = %.3f, want within 7%% of %d",
					arch.Name(), sh, sPrev, N)
			}
		}
	}
}

// TestSquaresBeatStrips: "Comparison of this speedup with speedup for
// strips shows the clear superiority of squares using realistic parameter
// values and large problems" (§6.1), and strips still trail with
// unbounded processors (§8: "square partitions are strongly preferred").
func TestSquaresBeatStrips(t *testing.T) {
	for _, n := range []int{256, 512, 1024} {
		bus := DefaultSyncBus(0)
		sStrip := SyncBusOptimalStripSpeedup(MustProblem(n, stencil.FivePoint, partition.Strip), bus)
		sSquare := SyncBusOptimalSquareSpeedup(MustProblem(n, stencil.FivePoint, partition.Square), bus)
		if sSquare <= sStrip {
			t.Errorf("n=%d: square speedup %.2f not above strip %.2f", n, sSquare, sStrip)
		}
	}
}

// TestInTextSpeedups reproduces the §6.1 worked example with the paper's
// own parameters (E·T_flp = b, N = 16, k = 1, c = 0, n ∈ {256, 1024}).
// Our read+write convention gives strips 3.2 → 8.0 and squares
// 5.33 → 11.64; the paper prints 4 → 10.6 and 10.6 → 14.2, matching the
// reads-only convention on squares (see SyncBus.ReadsOnly). We pin our numbers
// and verify the reads-only variant reproduces the paper's square values.
func TestInTextSpeedups(t *testing.T) {
	bus := PaperExampleBus(DefaultTflp, 5, 16)
	check := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 0.05 {
			t.Errorf("%s = %.3f, want %.3f", name, got, want)
		}
	}
	// Read+write convention (the paper's display equations, ω = 2):
	// strips S = N/(1 + 4bN²k/(E·T·n)), squares S = N/(1 + 8bkN^{3/2}/(E·T·n)).
	sStrip256, _ := Speedup(MustProblem(256, stencil.FivePoint, partition.Strip), bus, 16)
	check("strip n=256", sStrip256, 16.0/(1+4.0*16*16/256)) // 3.2
	sStrip1024, _ := Speedup(MustProblem(1024, stencil.FivePoint, partition.Strip), bus, 16)
	check("strip n=1024", sStrip1024, 8.0)
	sSq256, _ := Speedup(MustProblem(256, stencil.FivePoint, partition.Square), bus, 16)
	check("square n=256", sSq256, 16.0/(1+8.0*64/256)) // 5.333
	sSq1024, _ := Speedup(MustProblem(1024, stencil.FivePoint, partition.Square), bus, 16)
	check("square n=1024", sSq1024, 16.0/1.5) // 10.67

	// Reads-only convention (ω = 1). The paper's printed strip formula
	// 16/(1 + 512/n) corresponds exactly to this volume: 5.33 at n=256,
	// 10.67 at n=1024. (Its printed square pair 10.6/14.2 implies a
	// further halving, V = 2sk — half the paper's own 8sk(c+bP) display
	// equation. We pin the reads-only values.)
	ro := bus
	ro.ReadsOnly = true
	roStrip256, _ := Speedup(MustProblem(256, stencil.FivePoint, partition.Strip), ro, 16)
	check("reads-only strip n=256", roStrip256, 16.0/(1+512.0/256)) // 5.333
	roStrip1024, _ := Speedup(MustProblem(1024, stencil.FivePoint, partition.Strip), ro, 16)
	check("reads-only strip n=1024", roStrip1024, 16.0/(1+512.0/1024)) // 10.67
	roSq256, _ := Speedup(MustProblem(256, stencil.FivePoint, partition.Square), ro, 16)
	check("reads-only square n=256", roSq256, 16.0/(1+256.0/256)) // 8.0
	roSq1024, _ := Speedup(MustProblem(1024, stencil.FivePoint, partition.Square), ro, 16)
	check("reads-only square n=1024", roSq1024, 16.0/(1+256.0/1024)) // 12.8
}

// TestGrowthExponents validates the §8 scaling laws by fitting the
// speedup growth exponent γ in S ∝ (n²)^γ over a wide range of n.
func TestGrowthExponents(t *testing.T) {
	ns := []int{256, 512, 1024, 2048, 4096}
	cases := []struct {
		name  string
		sh    partition.Shape
		arch  Architecture
		fixed float64
		want  float64
		tol   float64
	}{
		{"hypercube squares", partition.Square, DefaultHypercube(0), 64, 1.0, 0.01},
		{"mesh squares", partition.Square, DefaultMesh(0), 64, 1.0, 0.01},
		// The banyan fit sits visibly below 1: the Θ(log n) stage growth
		// plus the fixed E·F·T term depress the exponent to ≈ 0.90 over
		// this range — distinguishing Θ(n²/log n) from the hypercube's
		// exact 1.0 while staying far above the bus exponents.
		{"banyan squares", partition.Square, DefaultBanyan(0), 64, 0.905, 0.04},
		{"sync bus squares", partition.Square, DefaultSyncBus(0), 0, 1.0 / 3, 0.02},
		{"sync bus strips", partition.Strip, DefaultSyncBus(0), 0, 0.25, 0.02},
		{"async bus squares", partition.Square, DefaultAsyncBus(0), 0, 1.0 / 3, 0.02},
		{"async bus strips", partition.Strip, DefaultAsyncBus(0), 0, 0.25, 0.02},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := MustProblem(ns[0], stencil.FivePoint, tc.sh)
			fixed := tc.fixed
			if fixed == 0 {
				fixed = 1
			}
			series, err := ScaledSpeedupSeries(p, tc.arch, fixed, ns)
			if err != nil {
				t.Fatal(err)
			}
			gamma, err := FitGrowthExponent(series)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(gamma-tc.want) > tc.tol {
				t.Errorf("γ = %.4f, want %.3f ± %.3f", gamma, tc.want, tc.tol)
			}
		})
	}
}

// TestBanyanLogFactor: hypercube and banyan scaled speedups differ by
// Θ(log n) (§7: "These switching network speedups differ from the
// hypercube speedups only by a factor of 1/log(n)").
func TestBanyanLogFactor(t *testing.T) {
	p := MustProblem(256, stencil.FivePoint, partition.Square)
	hc := DefaultHypercube(0)
	by := DefaultBanyan(0)
	const F = 1
	ratioAt := func(n int) float64 {
		q := p
		q.N = n
		sHC := q.SerialTime(hc.TflpTime) / hc.CycleTime(q, F)
		sBY := q.SerialTime(by.TflpTime) / by.CycleTime(q, F)
		return sHC / sBY
	}
	r256, r4096 := ratioAt(256), ratioAt(4096)
	// The ratio grows like log(n): log2(4096)/log2(256) = 12/8 = 1.5.
	growth := r4096 / r256
	if math.Abs(growth-1.5) > 0.25 {
		t.Errorf("hypercube/banyan ratio growth = %.3f, want ≈ 1.5", growth)
	}
}

// TestMinGridClosedFormMatchesSearch: the c = 0 closed forms for the
// smallest gainful grid agree with the exact search up to the integer
// threshold effect. The continuous condition compares the optimum area
// against n²/N; the integer condition compares t(N) with t(N−1), which
// shifts the strip threshold to 4kb·N(N−1)/(E·T) — a factor (N−1)/N below
// the paper's continuous 4kb·N²/(E·T). We assert the search result lies
// in the [(N−1)/N, 1] band around the closed form (± rounding).
func TestMinGridClosedFormMatchesSearch(t *testing.T) {
	bus := DefaultSyncBus(0)
	async := DefaultAsyncBus(0)
	for _, procs := range []int{4, 8, 12, 16, 24} {
		for _, tc := range []struct {
			name  string
			sh    partition.Shape
			arch  Architecture
			async bool
		}{
			{"sync strip", partition.Strip, bus, false},
			{"async strip", partition.Strip, async, true},
			{"sync square", partition.Square, bus, false},
		} {
			p := MustProblem(16, stencil.FivePoint, tc.sh)
			got, err := MinGridAllProcs(p, tc.arch, procs)
			if err != nil {
				t.Fatal(err)
			}
			cf := MinGridClosedForm(p, bus, procs, tc.async)
			lo := cf*float64(procs-1)/float64(procs) - 3
			hi := cf + 3
			if float64(got) < lo || float64(got) > hi {
				t.Errorf("%s N=%d: search n_min=%d outside [%.1f, %.1f] (closed form %.1f)",
					tc.name, procs, got, lo, hi, cf)
			}
		}
	}
}

// TestMinGridOrdering: Fig. 7's visual ordering — strips need larger
// grids than squares to exploit the same processor count, and the sync
// bus needs larger grids than the async bus; higher-E stencils need
// smaller grids.
func TestMinGridOrdering(t *testing.T) {
	const procs = 16
	bus, async := DefaultSyncBus(0), DefaultAsyncBus(0)
	nSyncStrip, err := MinGridAllProcs(MustProblem(16, stencil.FivePoint, partition.Strip), bus, procs)
	if err != nil {
		t.Fatal(err)
	}
	nAsyncStrip, err := MinGridAllProcs(MustProblem(16, stencil.FivePoint, partition.Strip), async, procs)
	if err != nil {
		t.Fatal(err)
	}
	nSyncSquare, err := MinGridAllProcs(MustProblem(16, stencil.FivePoint, partition.Square), bus, procs)
	if err != nil {
		t.Fatal(err)
	}
	if !(nSyncStrip > nAsyncStrip && nAsyncStrip > nSyncSquare) {
		t.Errorf("ordering violated: sync strip %d, async strip %d, sync square %d",
			nSyncStrip, nAsyncStrip, nSyncSquare)
	}
	n9, err := MinGridAllProcs(MustProblem(16, stencil.NinePoint, partition.Square), bus, procs)
	if err != nil {
		t.Fatal(err)
	}
	if n9 >= nSyncSquare {
		t.Errorf("9-point min grid %d not below 5-point %d", n9, nSyncSquare)
	}
}

// TestTableI: the Table I closed forms agree with the model's optimal
// speedups in their asymptotic regime.
func TestTableI(t *testing.T) {
	n := 1024
	rows := TableI(n, stencil.FivePoint, DefaultHypercube(0), DefaultSyncBus(0),
		DefaultAsyncBus(0), DefaultBanyan(0))
	if len(rows) != 4 {
		t.Fatalf("TableI has %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Speedup <= 0 || r.Formula == "" {
			t.Errorf("row %s malformed: %+v", r.Arch, r)
		}
	}
	// Ordering at large n: both distributed machines far exceed the
	// buses, and async beats sync. (Hypercube vs banyan at finite n is
	// decided by link constants, not the log factor — the paper says so
	// explicitly in §7 — so no ordering between them is asserted.)
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.Arch] = r.Speedup
	}
	if !(byName["hypercube"] > 10*byName["async-bus"] &&
		byName["banyan"] > 10*byName["async-bus"] &&
		byName["async-bus"] > byName["sync-bus"]) {
		t.Errorf("Table I ordering violated: %v", byName)
	}
	// Sync-bus row ≈ model's unbounded optimal square speedup.
	p := MustProblem(n, stencil.FivePoint, partition.Square)
	model := SyncBusOptimalSquareSpeedup(p, DefaultSyncBus(0))
	if math.Abs(byName["sync-bus"]-model)/model > 0.02 {
		t.Errorf("sync-bus Table I %.3f vs model %.3f", byName["sync-bus"], model)
	}
	// Async-bus row = 1.5× sync row.
	if r := byName["async-bus"] / byName["sync-bus"]; math.Abs(r-1.5) > 1e-9 {
		t.Errorf("async/sync Table I ratio %.6f", r)
	}
}

// TestHypercubeScaledLinear: with F fixed, the scaled cycle time is
// constant and speedup is exactly linear in n² (§4).
func TestHypercubeScaledLinear(t *testing.T) {
	hc := DefaultHypercube(0)
	p := MustProblem(256, stencil.FivePoint, partition.Square)
	const F = 64
	c1 := hc.ScaledCycleTime(p, F)
	q := p
	q.N = 4096
	c2 := hc.ScaledCycleTime(q, F)
	if math.Abs(c1-c2) > 1e-15 {
		t.Errorf("scaled cycle not constant: %g vs %g", c1, c2)
	}
	s1 := p.SerialTime(hc.TflpTime) / c1
	s2 := q.SerialTime(hc.TflpTime) / c2
	wantRatio := q.GridPoints() / p.GridPoints()
	if r := s2 / s1; math.Abs(r-wantRatio) > 1e-9*wantRatio {
		t.Errorf("speedup ratio %.6g, want %g (linear in n²)", r, wantRatio)
	}
}

// TestSpeedupBounds: speedup never exceeds the processor count (the
// model has no superlinearity).
func TestSpeedupBounds(t *testing.T) {
	for _, arch := range allArchs(0) {
		for _, sh := range partition.Shapes() {
			p := MustProblem(128, stencil.NinePoint, sh)
			for procs := 1; procs <= 128; procs *= 2 {
				s, err := Speedup(p, arch, procs)
				if err != nil {
					t.Fatal(err)
				}
				if s > float64(procs)+1e-9 || s <= 0 {
					t.Errorf("%s/%s P=%d: speedup %g out of (0, P]", arch.Name(), sh, procs, s)
				}
			}
		}
	}
}

// TestSpeedupErrors covers the validation paths.
func TestSpeedupErrors(t *testing.T) {
	p := MustProblem(64, stencil.FivePoint, partition.Strip)
	if _, err := Speedup(p, DefaultSyncBus(4), 0); err == nil {
		t.Error("P=0 accepted")
	}
	if _, err := Speedup(p, DefaultSyncBus(4), 65); err == nil {
		t.Error("P>n accepted for strips")
	}
	if _, err := Speedup(Problem{}, DefaultSyncBus(4), 2); err == nil {
		t.Error("invalid problem accepted")
	}
	if _, err := Speedup(p, SyncBus{}, 2); err == nil {
		t.Error("invalid arch accepted")
	}
	if _, err := OptimalSpeedup(Problem{}, DefaultSyncBus(4)); err == nil {
		t.Error("OptimalSpeedup invalid problem accepted")
	}
}
