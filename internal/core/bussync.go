package core

import (
	"fmt"

	"optspeed/internal/convexopt"
	"optspeed/internal/partition"
)

// SyncBus models a shared-memory synchronous-bus architecture such as the
// FLEX/32 (paper §6.1). Transferring one word costs c + b ignoring
// contention (c fixed overhead, b the bus cycle time); with P processors
// requesting simultaneously the effective per-word delay is c + b·P.
// Boundary values are copied from global memory at the start of an
// iteration and written back at its end (the Reed-Adams-Patrick
// management discipline the paper adopts), so a partition with one-way
// volume V serializes 2V words per iteration:
//
//	t_a = 2·V·(c + b·P)
//
// CountWrites=false selects the reads-only convention (V words per
// iteration) that the paper's §6.1 worked examples use (see
// PaperExampleBus and TestInTextSpeedups).
type SyncBus struct {
	TflpTime  float64 // seconds per flop
	B         float64 // bus cycle time per word (seconds)
	C         float64 // fixed per-word overhead: address calc + bus acquisition (seconds)
	NProcs    int     // available processors; 0 = unbounded
	ReadsOnly bool    // count only boundary reads (paper's in-text variant)
}

// Name implements Architecture.
func (s SyncBus) Name() string { return "sync-bus" }

// Tflp implements Architecture.
func (s SyncBus) Tflp() float64 { return s.TflpTime }

// Procs implements Architecture.
func (s SyncBus) Procs() int { return s.NProcs }

// Validate implements Architecture.
func (s SyncBus) Validate() error {
	if err := validTflp(s.Name(), s.TflpTime); err != nil {
		return err
	}
	if err := validProcs(s.Name(), s.NProcs); err != nil {
		return err
	}
	if s.B <= 0 {
		return fmt.Errorf("core: sync-bus: bus cycle time b=%g must be positive", s.B)
	}
	if s.C < 0 {
		return fmt.Errorf("core: sync-bus: overhead c=%g must be non-negative", s.C)
	}
	return nil
}

// wordFactor is the serialized words per iteration divided by the one-way
// volume V: 2 (read + write) by default, 1 in the reads-only convention.
func (s SyncBus) wordFactor() float64 {
	if s.ReadsOnly {
		return 1
	}
	return 2
}

// CommTime implements Architecture: t_a = ω·V·(c + b·P).
func (s SyncBus) CommTime(p Problem, area float64) float64 {
	if singleProc(p, area) {
		return 0
	}
	v := p.ReadWords(area)
	return s.wordFactor() * v * (s.C + s.B*procsFor(p, area))
}

// CycleTime implements Architecture: t = E·A·T_flp + t_a. This is the
// paper's equation (2) for strips; for squares it is the corresponding
// §6.1 expression.
func (s SyncBus) CycleTime(p Problem, area float64) float64 {
	return computeTime(p, area, s.TflpTime) + s.CommTime(p, area)
}

// OptimalStripArea returns Â, the real-valued strip area minimizing the
// cycle time with unbounded processors (paper equation (3)):
//
//	Â = sqrt(2·ω·k·b·n³ / (E·T_flp)),   ω = 2 (sync read+write)
//
// which for ω = 2 is the paper's sqrt(4·k·b·n³/(E·T_flp)). Note Â does not
// depend on the overhead c (paper §6.1).
func (s SyncBus) OptimalStripArea(p Problem) float64 {
	n := float64(p.N)
	k := float64(partition.Strip.Perimeters(p.Stencil))
	return sqrtf(2 * s.wordFactor() * k * s.B * n * n * n / (p.Flops() * s.TflpTime))
}

// OptimalSquareSide returns ŝ, the real-valued square partition side
// minimizing the cycle time with unbounded processors: the unique positive
// root of the paper's §6.1 optimality condition
//
//	E·T_flp·s³ + 2ω·k·(c·s² − b·n²) = 0
//
// (for ω = 2: E·T·s³ + 4k(c·s² − b·n²) = 0). With c = 0 this reduces to
// the closed form ŝ = (2ω·k·b·n²/(E·T_flp))^{1/3}.
func (s SyncBus) OptimalSquareSide(p Problem) float64 {
	n := float64(p.N)
	k := float64(partition.Square.Perimeters(p.Stencil))
	et := p.Flops() * s.TflpTime
	w := s.wordFactor()
	if s.C == 0 {
		return cbrt(2 * w * k * s.B * n * n / et)
	}
	root, err := convexopt.PositiveCubicRoot(et, 2*w*k*s.C, -2*w*k*s.B*n*n)
	if err != nil {
		// Unreachable for validated parameters; keep the closed form
		// as a defensive fallback.
		return cbrt(2 * w * k * s.B * n * n / et)
	}
	return root
}

// OptimalArea returns the real-valued optimal partition area for the
// problem's shape, before snapping to realizable decompositions.
func (s SyncBus) OptimalArea(p Problem) float64 {
	if p.Shape == partition.Strip {
		return s.OptimalStripArea(p)
	}
	side := s.OptimalSquareSide(p)
	return side * side
}

// InteriorOptimumPossible reports the paper's necessary condition for a
// square-partition optimum that uses fewer than all processors: c/b ≤ P
// (paper §6.1). With the FLEX/32's measured c/b ≈ 1000 and P ≤ 30, no
// interior optimum exists — numerical problems there should use all
// processors.
func (s SyncBus) InteriorOptimumPossible(procs int) bool {
	return s.C/s.B <= float64(procs)
}

var _ Architecture = SyncBus{}
