package optspeed

import (
	"context"
	"io"

	"optspeed/internal/core"
	"optspeed/internal/experiments"
	"optspeed/internal/grid"
	"optspeed/internal/partition"
	"optspeed/internal/solver"
	"optspeed/internal/stencil"
	"optspeed/internal/sweep"
)

// --- Stencils (paper §3, Figs. 1 and 3) ---

// Stencil is a discretization stencil; see FivePoint and friends.
type Stencil = stencil.Stencil

// Offset is a relative grid coordinate in a stencil.
type Offset = stencil.Offset

// Built-in stencils with calibrated E(S) flop counts.
var (
	FivePoint     = stencil.FivePoint
	NinePoint     = stencil.NinePoint
	NineStar      = stencil.NineStar
	ThirteenPoint = stencil.ThirteenPoint
)

// NewStencil builds a custom stencil from neighbor offsets (center
// excluded) and a per-point flop count E(S).
func NewStencil(name string, offsets []Offset, flops float64) (Stencil, error) {
	return stencil.New(name, offsets, flops)
}

// Stencils returns the paper's four stencils.
func Stencils() []Stencil { return stencil.Builtins() }

// --- Partition shapes (paper §3) ---

// Shape is the partition geometry: Strip or Square.
type Shape = partition.Shape

// The two shapes the paper analyzes.
const (
	Strip  = partition.Strip
	Square = partition.Square
)

// WorkingSet is the set of working rectangles approximating square
// partitions on an n×n grid (paper §3, Fig. 6).
type WorkingSet = partition.WorkingSet

// NewWorkingSet computes the working rectangles of an n×n grid with the
// paper's 5% square-likeness tolerance.
func NewWorkingSet(n int) (*WorkingSet, error) { return partition.NewWorkingSet(n) }

// DecomposeStrips cuts an n×n grid into p strips by the paper's rule.
func DecomposeStrips(n, p int) ([]partition.Band, error) { return partition.DecomposeStrips(n, p) }

// --- Problems and machines (paper §§3-7) ---

// Problem is a grid-size/stencil/shape triple.
type Problem = core.Problem

// NewProblem validates and builds a problem; it panics on invalid
// arguments in the Must variant.
func NewProblem(n int, st Stencil, sh Shape) (Problem, error) { return core.NewProblem(n, st, sh) }

// MustProblem is NewProblem panicking on error.
func MustProblem(n int, st Stencil, sh Shape) Problem { return core.MustProblem(n, st, sh) }

// Architecture is one of the paper's machine classes.
type Architecture = core.Architecture

// Machine types (zero NProcs = unbounded).
type (
	// Hypercube is the §4 message-passing hypercube (Intel iPSC class).
	Hypercube = core.Hypercube
	// Mesh is the §5 nearest-neighbor grid machine (Illiac IV, FEM).
	Mesh = core.Mesh
	// SyncBus is the §6.1 synchronous shared bus (FLEX/32 class).
	SyncBus = core.SyncBus
	// AsyncBus is the §6.2 bus with posted writes (and the fully
	// overlapped variant).
	AsyncBus = core.AsyncBus
	// Banyan is the §7 banyan/omega switching network (BBN Butterfly,
	// IBM RP3 class).
	Banyan = core.Banyan
)

// Overlap modes for AsyncBus.
const (
	OverlapWrites         = core.OverlapWrites
	OverlapReadsAndWrites = core.OverlapReadsAndWrites
)

// Calibrated default machines (the calibration is documented at the top
// of internal/core/machine.go).
var (
	DefaultHypercube = core.DefaultHypercube
	DefaultMesh      = core.DefaultMesh
	DefaultSyncBus   = core.DefaultSyncBus
	DefaultAsyncBus  = core.DefaultAsyncBus
	DefaultBanyan    = core.DefaultBanyan
	FlexBus          = core.FlexBus
)

// --- The model (the paper's contribution) ---

// Allocation is an optimized processor assignment.
type Allocation = core.Allocation

// Optimize minimizes the cycle time over the admissible processor range.
func Optimize(p Problem, a Architecture) (Allocation, error) { return core.Optimize(p, a) }

// Speedup returns the speedup at a given processor count.
func Speedup(p Problem, a Architecture, procs int) (float64, error) {
	return core.Speedup(p, a, procs)
}

// OptimalSpeedup returns the speedup of the optimal allocation.
func OptimalSpeedup(p Problem, a Architecture) (float64, error) { return core.OptimalSpeedup(p, a) }

// SerialFraction is the Karp-Flatt effective serial fraction of the
// problem/machine pair at the model's optimal allocation — the anchor
// the scaling-law evaluators share.
func SerialFraction(p Problem, a Architecture) (float64, error) { return core.SerialFraction(p, a) }

// AmdahlSpeedup is the fixed-size Amdahl speedup at P processors at the
// model-implied serial fraction.
func AmdahlSpeedup(p Problem, a Architecture, procs int) (float64, error) {
	return core.AmdahlSpeedup(p, a, procs)
}

// GustafsonSpeedup is the scaled Gustafson-Barsis speedup at P
// processors at the same serial fraction as AmdahlSpeedup.
func GustafsonSpeedup(p Problem, a Architecture, procs int) (float64, error) {
	return core.GustafsonSpeedup(p, a, procs)
}

// CriticalPathBound is Gunther's critical-path speedup bound with
// Brent's P-processor clamp: min(P, T₁/T∞).
func CriticalPathBound(p Problem, a Architecture, procs int) (float64, error) {
	return core.CriticalPathBound(p, a, procs)
}

// MinGridAllProcs returns the smallest grid size whose optimal
// allocation uses all N processors (paper Fig. 7).
func MinGridAllProcs(p Problem, a Architecture, procs int) (int, error) {
	return core.MinGridAllProcs(p, a, procs)
}

// MaxGainfulProcs returns the largest processor count the problem can
// gainfully use (the paper's "1 to 14 processors" numbers).
func MaxGainfulProcs(p Problem, a Architecture) (int, error) { return core.MaxGainfulProcs(p, a) }

// ShapeChoice compares the two partition shapes for a problem.
type ShapeChoice = core.ShapeChoice

// BestShape optimizes under both shapes and reports the winner (§6.1:
// squares, for realistic parameters and large problems).
func BestShape(p Problem, a Architecture) (ShapeChoice, error) { return core.BestShape(p, a) }

// GrowthOrder classifies asymptotic optimal-speedup growth (Table I).
type GrowthOrder = core.GrowthOrder

// SpeedupGrowth returns the paper's asymptotic order for an
// architecture/shape pair.
func SpeedupGrowth(a Architecture, sh Shape) GrowthOrder { return core.SpeedupGrowth(a, sh) }

// TableIRow is one row of the paper's Table I.
type TableIRow = core.TableIRow

// TableI evaluates the paper's Table I at grid size n.
func TableI(n int, st Stencil, hc Hypercube, sb SyncBus, ab AsyncBus, by Banyan) []TableIRow {
	return core.TableI(n, st, hc, sb, ab, by)
}

// Constraints narrow admissible allocations (memory per processor,
// minimum processor count; paper §3).
type Constraints = core.Constraints

// OptimizeConstrained is Optimize under Constraints.
func OptimizeConstrained(p Problem, a Architecture, c Constraints) (Allocation, error) {
	return core.OptimizeConstrained(p, a, c)
}

// ConvergenceCheck models the §4 convergence-checking cost (extra
// compute plus verdict dissemination, amortized over a check period).
type ConvergenceCheck = core.ConvergenceCheck

// DefaultConvergenceCheck is the paper's 5-point figure (≈50% extra
// compute), checked every iteration.
var DefaultConvergenceCheck = core.DefaultConvergenceCheck

// CycleTimeWithCheck returns the per-iteration time including the
// amortized convergence check.
func CycleTimeWithCheck(p Problem, a Architecture, cc ConvergenceCheck, procs int) (float64, error) {
	return core.CycleTimeWithCheck(p, a, cc, procs)
}

// OptimizeWithCheck minimizes the checked cycle time.
func OptimizeWithCheck(p Problem, a Architecture, cc ConvergenceCheck) (Allocation, error) {
	return core.OptimizeWithCheck(p, a, cc)
}

// Efficiency returns speedup per processor.
func Efficiency(p Problem, a Architecture, procs int) (float64, error) {
	return core.Efficiency(p, a, procs)
}

// IsoefficiencyGrid returns the smallest grid sustaining the target
// efficiency on the given processor count (Fig. 7, generalized).
func IsoefficiencyGrid(p Problem, a Architecture, procs int, target float64) (int, error) {
	return core.IsoefficiencyGrid(p, a, procs, target)
}

// Param identifies a machine parameter for sensitivity analysis.
type Param = core.Param

// Sensitivity parameters.
const (
	ParamTflp        = core.ParamTflp
	ParamBusCycle    = core.ParamBusCycle
	ParamBusOverhead = core.ParamBusOverhead
	ParamAlpha       = core.ParamAlpha
	ParamBeta        = core.ParamBeta
	ParamSwitch      = core.ParamSwitch
)

// Elasticity returns d log t*/d log θ for a machine parameter.
func Elasticity(p Problem, a Architecture, param Param) (float64, error) {
	return core.Elasticity(p, a, param)
}

// JacobiIterations estimates the Jacobi sweeps needed for an error
// reduction eps on an n×n 5-point problem (Θ(n²)).
func JacobiIterations(n int, eps float64) (int, error) { return core.JacobiIterations(n, eps) }

// SolveTime composes iterations × optimized cycle time.
type SolveTime = core.SolveTime

// TimeToSolution predicts the whole-solve time and speedup.
func TimeToSolution(p Problem, a Architecture, eps float64, cc *ConvergenceCheck) (SolveTime, error) {
	return core.TimeToSolution(p, a, eps, cc)
}

// MachineSpec is the JSON-serializable machine description.
type MachineSpec = core.MachineSpec

// ParseMachine decodes a JSON machine spec into an Architecture.
func ParseMachine(data []byte) (Architecture, error) { return core.ParseMachine(data) }

// MarshalMachine encodes an Architecture as a JSON machine spec.
func MarshalMachine(a Architecture) ([]byte, error) { return core.MarshalMachine(a) }

// LeverageResult reports the cycle-time ratio of a hardware improvement.
type LeverageResult = core.LeverageResult

// Leverage kinds (which hardware parameter is doubled/halved).
const (
	LeverageBus      = core.LeverageBus
	LeverageFlops    = core.LeverageFlops
	LeverageOverhead = core.LeverageOverhead
	LeverageSwitch   = core.LeverageSwitch
	LeverageLink     = core.LeverageLink
)

// Leverage re-optimizes after a hardware improvement (paper §6.1).
func Leverage(p Problem, a Architecture, kind core.LeverageKind) (LeverageResult, error) {
	return core.Leverage(p, a, kind)
}

// --- The real solver (empirical validation) ---

// Grid is the dense n×n computational grid.
type Grid = grid.Grid

// NewGrid allocates an n×n grid with the default ghost ring.
func NewGrid(n int) (*Grid, error) { return grid.New(n) }

// Kernel is a concrete point-update rule (weights on a stencil).
type Kernel = grid.Kernel

// Built-in kernels.
var (
	// Laplace5 is point Jacobi for the 5-point Laplacian.
	Laplace5 = grid.Laplace5
	// Laplace9 is point Jacobi for the 9-point Mehrstellen Laplacian.
	Laplace9 = grid.Laplace9
	// Star9 is point Jacobi for the fourth-order 9-point star.
	Star9 = grid.Star9
	// Averaging is a synthetic smoothing kernel for any stencil.
	Averaging = grid.Averaging
)

// SolveConfig configures the goroutine solver.
type SolveConfig = solver.Config

// SolveResult reports a completed parallel solve.
type SolveResult = solver.Result

// Decompositions for the solver.
const (
	Strips = solver.Strips
	Blocks = solver.Blocks
)

// Solve runs the barrier-synchronized parallel Jacobi solver.
func Solve(u *Grid, k Kernel, f *Grid, cfg SolveConfig) (SolveResult, error) {
	return solver.Solve(u, k, f, cfg)
}

// DistributedSolve runs the channel-based message-passing solver on a
// strip decomposition: DistributedSolveBlocks on a py×1 block grid with
// py = max(workers, 1).
func DistributedSolve(u *Grid, k Kernel, f *Grid, workers, iterations int) (SolveResult, error) {
	return solver.DistributedSolveBlocks(u, k, f, max(workers, 1), 1, iterations)
}

// DistributedSolveBlocks runs the 2-D block message-passing solver on a
// py×px worker grid (the paper's square decomposition as channel code;
// px = 1 is the strip decomposition).
func DistributedSolveBlocks(u *Grid, k Kernel, f *Grid, py, px, iterations int) (SolveResult, error) {
	return solver.DistributedSolveBlocks(u, k, f, py, px, iterations)
}

// RedBlackConfig configures the parallel red-black Gauss-Seidel solver.
type RedBlackConfig = solver.RedBlackConfig

// SolveRedBlack runs parallel red-black Gauss-Seidel (optionally
// over-relaxed); bit-identical to the serial sweep for any worker count.
func SolveRedBlack(u *Grid, k Kernel, f *Grid, cfg RedBlackConfig) (SolveResult, error) {
	return solver.SolveRedBlack(u, k, f, cfg)
}

// Residual returns the max and L2 fixed-point residual norms of one
// kernel application.
func Residual(u *Grid, k Kernel, f *Grid) (maxNorm, l2Norm float64, err error) {
	return grid.Residual(u, k, f)
}

// Convergence-check schedules (paper §4 and reference [13]).
type (
	// Schedule decides which iterations run a global convergence check.
	Schedule = solver.Schedule
	// EveryIteration checks every iteration.
	EveryIteration = solver.EveryIteration
	// EveryK checks every K-th iteration.
	EveryK = solver.EveryK
)

// NewGeometricSchedule builds the geometric (Saltz-style) check schedule.
func NewGeometricSchedule(start, ratio float64) (Schedule, error) {
	return solver.NewGeometric(start, ratio)
}

// --- The sweep engine (batch evaluation) ---

// SweepEngine is the sharded, memoizing parallel evaluator behind both
// the paper-figure experiments and the cmd/optspeedd service.
type SweepEngine = sweep.Engine

// SweepOptions configures a sweep engine (worker pool and cache sizes).
type SweepOptions = sweep.Options

// SweepSpec is one evaluation point: problem, machine, and operation.
type SweepSpec = sweep.Spec

// SweepSpace is a Cartesian product of spec axes.
type SweepSpace = sweep.Space

// SweepResult is one evaluated spec, tagged with its submission index
// and whether it was answered from the cache.
type SweepResult = sweep.Result

// SweepAlloc is a sweep result's optimal allocation: the numbers of an
// Allocation, without the problem and machine name its spec already
// gives.
type SweepAlloc = sweep.Alloc

// Sweep operations.
const (
	SweepOptimize = sweep.OpOptimize
	// SweepOptimizeSnapped is a compatibility alias of SweepOptimize:
	// it returns the same allocation.
	SweepOptimizeSnapped = sweep.OpOptimizeSnapped
	SweepSpeedup         = sweep.OpSpeedup
	SweepMinGrid         = sweep.OpMinGrid
	SweepIsoeffGrid      = sweep.OpIsoeffGrid
	SweepScaled          = sweep.OpScaled
	// Scaling-law ops: fixed-size Amdahl and scaled Gustafson-Barsis at
	// the model-implied serial fraction, and Gunther's critical-path
	// bound min(P, T₁/T∞).
	SweepAmdahl       = sweep.OpAmdahl
	SweepGustafson    = sweep.OpGustafson
	SweepCriticalPath = sweep.OpCriticalPath
)

// NewSweepEngine builds a sweep engine.
func NewSweepEngine(opts SweepOptions) *SweepEngine { return sweep.New(opts) }

// RunSweep expands and evaluates a Cartesian space on a fresh default
// engine, returning results in deterministic (submission) order. Reuse
// an engine via NewSweepEngine to keep its cache warm across sweeps.
func RunSweep(ctx context.Context, space SweepSpace) ([]SweepResult, error) {
	return NewSweepEngine(SweepOptions{}).RunSpace(ctx, space)
}

// CatalogEntry describes one supported machine type: its calibrated
// default spec and the paper's asymptotic growth orders per shape.
type CatalogEntry = core.CatalogEntry

// MachineCatalog describes the supported machine types with their
// calibrated defaults (the service's GET /v1/architectures payload).
func MachineCatalog() []CatalogEntry { return core.Catalog() }

// --- The reproduction harness ---

// RunExperiments regenerates the paper's tables and figures to w. only
// filters by experiment id (nil = all); see ExperimentIDs.
func RunExperiments(w io.Writer, only map[string]bool, includeEmpirical bool) error {
	return experiments.RunAll(w, only, includeEmpirical)
}

// ExperimentIDs lists the experiment identifiers RunExperiments accepts.
func ExperimentIDs() []string { return experiments.IDs() }
