package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"optspeed/internal/convexopt"
	"optspeed/internal/partition"
	"optspeed/internal/stencil"
)

// TestCycleUnimodal is the paper's §8 convexity claim, property-tested:
// for every architecture and random positive parameters, the cycle time
// as a function of the processor count is unimodal over [2, maxP].
// P = 1 is excluded: a single processor pays no communication, so the
// curve may jump upward from P = 1 to P = 2 (paper §4's one-or-all
// discussion); Optimize handles that point separately.
func TestCycleUnimodal(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	archFactories := []func(tflp float64, r *rand.Rand) Architecture{
		func(tflp float64, r *rand.Rand) Architecture {
			return Hypercube{TflpTime: tflp, Alpha: mag(r), Beta: mag(r), PacketWords: 1 + float64(r.Intn(256))}
		},
		func(tflp float64, r *rand.Rand) Architecture {
			return SyncBus{TflpTime: tflp, B: mag(r), C: mag(r) * float64(r.Intn(2))}
		},
		func(tflp float64, r *rand.Rand) Architecture {
			return AsyncBus{TflpTime: tflp, B: mag(r), C: mag(r) * float64(r.Intn(2))}
		},
		func(tflp float64, r *rand.Rand) Architecture {
			return AsyncBus{TflpTime: tflp, B: mag(r), Overlap: OverlapReadsAndWrites}
		},
		func(tflp float64, r *rand.Rand) Architecture {
			// Fixed machine: the paper's §7 monotonicity claim holds for
			// constant network depth. (The grown-network variant has a
			// small log₂(P)/√P hump; Optimize handles it separately.)
			return Banyan{TflpTime: tflp, W: mag(r), NProcs: 2 << r.Intn(10)}
		},
	}
	f := func() bool {
		n := 16 << rng.Intn(4)
		st := stencil.Builtins()[rng.Intn(4)]
		sh := partition.Shapes()[rng.Intn(2)]
		p := MustProblem(n, st, sh)
		arch := archFactories[rng.Intn(len(archFactories))](mag(rng), rng)
		maxP := boundedProcs(p, arch)
		if maxP < 2 {
			return true
		}
		cycle := func(procs int) float64 { return arch.CycleTime(p, p.AreaFor(procs)) }
		return convexopt.IsUnimodal(2, maxP, 1, cycle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// mag draws a positive magnitude across several decades.
func mag(r *rand.Rand) float64 { return math.Exp(r.Float64()*12 - 9) }

// TestOptimizeMatchesBruteForce: the search equals exhaustive search
// over all processor counts, for every machine type and both shapes,
// with random parameters and caps, and for the banyan with both a fixed
// network (NProcs set) and one that grows with the decomposition. That
// Optimize is exact is also why the optimize-snapped op can answer with
// Optimize: no realizable count can beat the exact discrete minimum.
func TestOptimizeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	type machineCase struct {
		typ   string
		fixed bool // draw a processor cap (for banyan: a fixed network)
	}
	var cases []machineCase
	for _, typ := range MachineTypes() {
		cases = append(cases, machineCase{typ, false}, machineCase{typ, true})
	}
	for _, mc := range cases {
		for _, sh := range partition.Shapes() {
			for trial := 0; trial < 6; trial++ {
				n := 24 << rng.Intn(2)
				p := MustProblem(n, stencil.Builtins()[rng.Intn(4)], sh)
				spec := MachineSpec{
					Type: mc.typ, Tflp: mag(rng),
					BusCycle: mag(rng), BusOverhead: mag(rng) * float64(rng.Intn(2)),
					Alpha: mag(rng), Beta: mag(rng), PacketWords: 1 + float64(rng.Intn(256)),
					SwitchTime: mag(rng), ReadsOnly: rng.Intn(2) == 0, ConvHW: rng.Intn(2) == 0,
				}
				if mc.fixed {
					spec.Procs = 2 << rng.Intn(10)
				}
				arch, err := spec.Machine()
				if err != nil {
					t.Fatal(err)
				}
				alloc, err := Optimize(p, arch)
				if err != nil {
					t.Fatal(err)
				}
				maxP := boundedProcs(p, arch)
				bestP, bestT := 1, math.Inf(1)
				for procs := 1; procs <= maxP; procs++ {
					if tt := arch.CycleTime(p, p.AreaFor(procs)); tt < bestT {
						bestP, bestT = procs, tt
					}
				}
				if alloc.CycleTime > bestT*(1+1e-12) {
					t.Errorf("%s on %s (procs cap %d): Optimize %d procs (t=%g) worse than brute force %d (t=%g)",
						p, arch.Name(), spec.Procs, alloc.Procs, alloc.CycleTime, bestP, bestT)
				}
			}
		}
	}
}

// TestAllOrOne reproduces the paper's central allocation theorem (§4, §5,
// §7): on hypercube, mesh, and fixed-size banyan architectures the
// optimal allocation is always either one processor or all available
// processors, for any positive parameters. (The banyan must be a fixed
// machine: with log₂(N) stages constant in the processors actually used,
// its cycle time is monotone in A, which is the paper's §7 setting. A
// banyan whose network grows with the decomposition admits interior
// optima for strips — see the scaled analysis.)
func TestAllOrOne(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	f := func() bool {
		n := 16 << rng.Intn(4)
		st := stencil.Builtins()[rng.Intn(4)]
		sh := partition.Shapes()[rng.Intn(2)]
		p := MustProblem(n, st, sh)
		var arch Architecture
		switch rng.Intn(3) {
		case 0:
			arch = Hypercube{TflpTime: mag(rng), Alpha: mag(rng), Beta: mag(rng), PacketWords: 1 + float64(rng.Intn(128))}
		case 1:
			arch = Mesh{TflpTime: mag(rng), Alpha: mag(rng), Beta: mag(rng), PacketWords: 1 + float64(rng.Intn(128))}
		default:
			arch = Banyan{TflpTime: mag(rng), W: mag(rng), NProcs: 2 << rng.Intn(10)}
		}
		alloc, err := Optimize(p, arch)
		if err != nil {
			return false
		}
		return alloc.Single || alloc.UsedAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestBusInteriorOptimum: on a synchronous bus with c = 0 and a large
// machine, moderate problems have an interior optimum (fewer than all
// processors) — the regime Figs. 7/8 explore.
func TestBusInteriorOptimum(t *testing.T) {
	p := MustProblem(256, stencil.FivePoint, partition.Square)
	bus := DefaultSyncBus(1024)
	alloc := MustOptimize(p, bus)
	if !alloc.Interior {
		t.Fatalf("expected interior optimum, got %+v", alloc)
	}
	if alloc.Procs < 2 || alloc.Procs >= 1024 {
		t.Errorf("interior optimum P=%d out of expected band", alloc.Procs)
	}
}

// TestOptimizeInvalidInputs.
func TestOptimizeInvalidInputs(t *testing.T) {
	if _, err := Optimize(Problem{}, DefaultSyncBus(4)); err == nil {
		t.Error("invalid problem accepted")
	}
	p := MustProblem(64, stencil.FivePoint, partition.Strip)
	if _, err := Optimize(p, SyncBus{}); err == nil {
		t.Error("invalid arch accepted")
	}
}

func TestMustOptimizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustOptimize did not panic")
		}
	}()
	MustOptimize(Problem{}, DefaultSyncBus(4))
}

// TestOptimalAreaClosedFormAgreement: the closed-form continuous optima
// (paper eq. (3) and the §6.1/§6.2 cubic) agree with the integer search
// to within one processor step.
func TestOptimalAreaClosedFormAgreement(t *testing.T) {
	cases := []struct {
		name string
		sh   partition.Shape
		arch Architecture
	}{
		{"sync strips", partition.Strip, DefaultSyncBus(0)},
		{"sync squares", partition.Square, DefaultSyncBus(0)},
		{"async strips", partition.Strip, DefaultAsyncBus(0)},
		{"async squares", partition.Square, DefaultAsyncBus(0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := MustProblem(512, stencil.FivePoint, tc.sh)
			alloc := MustOptimize(p, tc.arch)
			contArea := alloc.ContinuousArea
			if contArea <= 0 {
				t.Fatalf("no continuous area")
			}
			contProcs := p.GridPoints() / contArea
			if math.Abs(contProcs-float64(alloc.Procs)) > 1.5 {
				t.Errorf("closed-form P=%.2f vs search P=%d", contProcs, alloc.Procs)
			}
		})
	}
}

// TestCycleCurve: curve length, positivity, endpoint equals serial time.
func TestCycleCurve(t *testing.T) {
	p := MustProblem(64, stencil.FivePoint, partition.Strip)
	bus := DefaultSyncBus(16)
	curve := CycleCurve(p, bus, 0)
	if len(curve) != 16 {
		t.Fatalf("curve length %d, want 16 (bounded by machine)", len(curve))
	}
	if math.Abs(curve[0]-p.SerialTime(bus.Tflp())) > 1e-18 {
		t.Errorf("curve[0] = %g, want serial", curve[0])
	}
	for i, v := range curve {
		if v <= 0 {
			t.Errorf("curve[%d] = %g", i, v)
		}
	}
	if got := len(CycleCurve(p, bus, 4)); got != 4 {
		t.Errorf("truncated curve length %d", got)
	}
}

// TestAllocationString sanity.
func TestAllocationString(t *testing.T) {
	p := MustProblem(64, stencil.FivePoint, partition.Strip)
	a := MustOptimize(p, DefaultSyncBus(8))
	if a.String() == "" {
		t.Error("empty String()")
	}
}
