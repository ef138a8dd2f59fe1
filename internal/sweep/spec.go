// Package sweep is the sharded parallel evaluation engine for the
// Nicol-Willard model: it takes Cartesian spaces of
// (grid size, stencil, shape, architecture, processor cap) specs,
// evaluates them concurrently on an engine-wide worker pool, memoizes
// results under canonical spec keys in a hash-sharded LRU cache
// (coalescing concurrent duplicate work shard-locally), and streams
// results in a deterministic order. The paper-figure experiments and
// the optimization service share this one evaluation path.
package sweep

import (
	"errors"
	"fmt"
	"math"

	"optspeed/internal/core"
	"optspeed/internal/partition"
	"optspeed/internal/stencil"
)

// Op selects which model quantity a Spec evaluates.
type Op string

const (
	// OpOptimize finds the optimal allocation (default).
	OpOptimize Op = "optimize"
	// OpOptimizeSnapped is a compatibility alias of OpOptimize: it
	// evaluates core.Optimize, whose answer is the exact discrete
	// minimum, so no snap to a working rectangle can improve on it. The
	// op keeps its own cache key and echoes its own name.
	OpOptimizeSnapped Op = "optimize-snapped"
	// OpSpeedup evaluates the speedup at exactly Procs processors.
	OpSpeedup Op = "speedup"
	// OpMinGrid finds the smallest grid gainfully using all Procs
	// processors (paper Fig. 7); the spec's N seeds the search problem.
	OpMinGrid Op = "min-grid"
	// OpIsoeffGrid finds the smallest grid sustaining efficiency ≥ Target
	// on Procs processors.
	OpIsoeffGrid Op = "isoeff-grid"
	// OpScaled evaluates one point of a scaled-speedup series: the
	// machine grows with the problem at PointsPerProc grid points per
	// processor (buses take their unbounded optimum instead).
	OpScaled Op = "scaled"
	// OpAmdahl evaluates the fixed-size Amdahl speedup at Procs
	// processors, at the serial fraction the model implies for the
	// problem/machine pair (core.SerialFraction).
	OpAmdahl Op = "amdahl"
	// OpGustafson evaluates the scaled Gustafson-Barsis speedup at
	// Procs processors, at the same serial fraction as OpAmdahl.
	OpGustafson Op = "gustafson"
	// OpCriticalPath evaluates Gunther's critical-path speedup bound
	// min(Procs, T₁/T∞) for the problem/machine pair.
	OpCriticalPath Op = "critical-path"
)

// keyField is one optional spec field an op's cache key can keep.
type keyField uint8

const (
	keyN keyField = 1 << iota
	keyProcs
	keyTarget
	keyF
)

// opDef declares one op. Every per-op decision the engine makes lives
// in the op's row, and the row's position in opTable is the op's
// struct-key code.
type opDef struct {
	op Op
	// key is the set of spec fields the op's cache key keeps. The rest
	// are zeroed so they cannot split the cache (e.g. a leftover Target
	// on an optimize spec).
	key keyField
	// seedN marks the grid searches: they overwrite the problem's N
	// during their bracket-and-bisect, so an omitted N takes
	// DefaultSeedN and N stays out of the key.
	seedN bool
	// eval computes the op's quantity for a resolved spec, writing its
	// payload fields and Err into a, which the caller has reset.
	eval func(s Spec, r resolved, a *Answer)
	// batch, if set, evaluates one (problem, machine) pair at many
	// processor counts, doing the work the counts share once. A space
	// of this op with a procs axis is evaluated one procs group per
	// unit, with one batch call for the group's owned members. It
	// follows the core.SpeedupBatch contract: vals[i]/errs[i] per point
	// with values and errors identical to eval's, and a final error
	// failing the whole batch.
	batch batchFunc
}

// batchFunc evaluates one (problem, machine) pair at many processor
// counts.
type batchFunc func(p core.Problem, arch core.Architecture, procs []int) ([]float64, []error, error)

// opTable is the op set, in the order Ops lists it.
var opTable = [...]opDef{
	{op: OpOptimize, key: keyN, eval: optimizeOp},
	{op: OpOptimizeSnapped, key: keyN, eval: optimizeOp},
	{op: OpSpeedup, key: keyN | keyProcs, eval: procsOp(core.Speedup), batch: core.SpeedupBatch},
	{op: OpMinGrid, key: keyProcs, seedN: true, eval: func(s Spec, r resolved, a *Answer) {
		a.Grid, a.Err = core.MinGridAllProcs(r.problem, r.arch, s.Procs)
	}},
	{op: OpIsoeffGrid, key: keyProcs | keyTarget, seedN: true, eval: func(s Spec, r resolved, a *Answer) {
		a.Grid, a.Err = core.IsoefficiencyGrid(r.problem, r.arch, s.Procs, s.Target)
	}},
	{op: OpScaled, key: keyN | keyF, eval: func(s Spec, r resolved, a *Answer) {
		series, err := core.ScaledSpeedupSeries(r.problem, r.arch, s.PointsPerProc, []int{s.N})
		if err != nil {
			a.Err = err
			return
		}
		a.Scaled, a.Value = series[0], series[0].Speedup
	}},
	{op: OpAmdahl, key: keyN | keyProcs, eval: procsOp(core.AmdahlSpeedup), batch: core.AmdahlBatch},
	{op: OpGustafson, key: keyN | keyProcs, eval: procsOp(core.GustafsonSpeedup), batch: core.GustafsonBatch},
	{op: OpCriticalPath, key: keyN | keyProcs, eval: procsOp(core.CriticalPathBound), batch: core.CriticalPathBatch},
}

// optimizeOp evaluates the optimal allocation.
func optimizeOp(_ Spec, r resolved, a *Answer) {
	alloc, err := core.Optimize(r.problem, r.arch)
	a.Alloc, a.Value, a.Err = allocOf(alloc), alloc.Speedup, err
}

// procsOp adapts a speedup at the spec's Procs to an op evaluator.
func procsOp(f func(core.Problem, core.Architecture, int) (float64, error)) func(Spec, resolved, *Answer) {
	return func(s Spec, r resolved, a *Answer) {
		a.Value, a.Err = f(r.problem, r.arch, s.Procs)
	}
}

// lookupOp returns the op's row and struct-key code, or a nil row for
// an op the table does not declare. The zero op is OpOptimize.
func lookupOp(op Op) (*opDef, uint8) {
	if op == "" {
		op = OpOptimize
	}
	for i := range opTable {
		if opTable[i].op == op {
			return &opTable[i], uint8(i)
		}
	}
	return nil, 0
}

// errUnknownOp is the error for an op the table does not declare.
func errUnknownOp(op Op) error {
	return fmt.Errorf("sweep: unknown op %q", op)
}

// Ops enumerates every declared op, in table order.
func Ops() []Op {
	ops := make([]Op, len(opTable))
	for i := range opTable {
		ops[i] = opTable[i].op
	}
	return ops
}

// Valid reports whether the op is one the engine can evaluate. The
// zero op is valid: it normalizes to OpOptimize. The service boundary
// checks this before admission, so a typo'd op is a 400 instead of a
// page of per-result errors.
func (op Op) Valid() bool {
	d, _ := lookupOp(op)
	return d != nil
}

// Spec is one evaluation point: a problem, a machine, and an operation.
// The zero Op means OpOptimize. Machine fields left zero take the
// calibrated defaults (core.MachineSpec.Canonical).
type Spec struct {
	Op      Op               `json:"op,omitempty"`
	N       int              `json:"n"`
	Stencil string           `json:"stencil"`
	Shape   string           `json:"shape"`
	Machine core.MachineSpec `json:"machine"`

	// Procs is the processor count for OpSpeedup, OpMinGrid,
	// OpIsoeffGrid, and the scaling-law ops (OpAmdahl, OpGustafson,
	// OpCriticalPath). It is independent of Machine.Procs, which caps
	// the admissible range for the optimize ops.
	Procs int `json:"procs,omitempty"`
	// Target is the efficiency target for OpIsoeffGrid.
	Target float64 `json:"target,omitempty"`
	// PointsPerProc is the per-processor load F for OpScaled.
	PointsPerProc float64 `json:"points_per_proc,omitempty"`
}

// ParseShape maps "strip"/"square" to the partition shape.
func ParseShape(name string) (partition.Shape, error) {
	switch name {
	case "strip":
		return partition.Strip, nil
	case "square":
		return partition.Square, nil
	default:
		return 0, fmt.Errorf("sweep: unknown shape %q (want strip or square)", name)
	}
}

// op returns the spec's operation with the default applied.
func (s Spec) op() Op {
	if s.Op == "" {
		return OpOptimize
	}
	return s.Op
}

// DefaultSeedN seeds the problem for the grid-search ops (OpMinGrid,
// OpIsoeffGrid) when the spec omits N: those searches overwrite the
// problem's N, so the seed only has to validate.
const DefaultSeedN = 16

// Problem resolves the spec's problem triple, validating it.
func (s Spec) Problem() (core.Problem, error) {
	p, _, err := s.problem()
	return p, err
}

// problem parses the spec's stencil and shape names and builds its
// problem, seeding an omitted N for the grid searches. It also returns
// the stencil's key code. Problem, resolve, Key and the batched procs
// groups all resolve problems here.
func (s Spec) problem() (core.Problem, uint8, error) {
	st, ok := stencil.ByName(s.Stencil)
	if !ok {
		return core.Problem{}, 0, fmt.Errorf("sweep: unknown stencil %q", s.Stencil)
	}
	stCode, _ := stencilCode(s.Stencil)
	sh, err := ParseShape(s.Shape)
	if err != nil {
		return core.Problem{}, 0, err
	}
	n := s.N
	if d, _ := lookupOp(s.Op); n == 0 && d != nil && d.seedN {
		n = DefaultSeedN
	}
	p, err := core.NewProblem(n, st, sh)
	return p, stCode, err
}

// Validate checks the spec without evaluating it.
func (s Spec) Validate() error {
	_, err := s.resolve()
	return err
}

// resolved is a spec with its problem, machine, and cache key
// materialized once — the engine resolves each spec a single time and
// reuses the triple for both keying and evaluation.
type resolved struct {
	problem core.Problem
	arch    core.Architecture
	key     specKey
}

// machResolved is one machine's resolution, shared between per-spec
// resolution and a space's evaluation (Engine.Open materializes each
// machine axis value once). Exactly one of {arch, canon, mk} / err is
// meaningful.
type machResolved struct {
	arch  core.Architecture
	canon core.MachineSpec
	mk    machKey
	err   error
}

// resolveMachine materializes a machine spec once: default filling and
// validation (Machine), canonicalization (SpecFor of the materialized
// machine is canonical by construction, so no second round-trip), and
// the struct key fields.
func resolveMachine(m core.MachineSpec) machResolved {
	arch, err := m.Machine()
	if err != nil {
		return machResolved{err: err}
	}
	canon, err := core.SpecFor(arch)
	if err != nil {
		return machResolved{err: err}
	}
	mk, err := machKeyFor(canon)
	if err != nil {
		return machResolved{err: err}
	}
	return machResolved{arch: arch, canon: canon, mk: mk}
}

// resolvedFromParts composes a spec's resolution from its materialized
// problem (Spec.problem) and machine. It is the single definition of
// per-spec error precedence — problem before machine before key — used
// by resolve and by a space's workers, so RunSpace and Run report
// identical errors by construction.
func resolvedFromParts(s Spec, prob core.Problem, stCode uint8, probErr error, mach *machResolved) (resolved, error) {
	if probErr != nil {
		return resolved{}, probErr
	}
	if mach.err != nil {
		return resolved{}, mach.err
	}
	key, err := buildKey(s, stCode, prob.Shape, mach.mk)
	if err != nil {
		return resolved{}, err
	}
	return resolved{problem: prob, arch: mach.arch, key: key}, nil
}

// resolve validates the spec and materializes its problem, machine, and
// struct cache key in one pass. The only allocation on this path is the
// one interface box inside MachineSpec.Machine; everything else stays
// on the stack (asserted by TestResolveAndLookupAllocBudget).
func (s Spec) resolve() (resolved, error) {
	mach := resolveMachine(s.Machine)
	return s.resolveOn(&mach)
}

// resolveOn is resolve with the spec's machine already resolved.
func (s Spec) resolveOn(mach *machResolved) (resolved, error) {
	prob, stCode, err := s.problem()
	return resolvedFromParts(s, prob, stCode, err, mach)
}

// Key returns the canonical memoization key of the spec as a string:
// two specs that evaluate the same model point (after machine default
// filling) share a key. Fields irrelevant to the spec's op are
// excluded, so e.g. a leftover Target does not split the cache for an
// optimize spec. The engine caches on an equivalent fixed-size struct
// key built from the op table; this string form is written out
// independently of that table and is the reference the key tests hold
// the struct key's equality classes to.
func (s Spec) Key() (string, error) {
	mach := resolveMachine(s.Machine)
	if _, err := s.resolveOn(&mach); err != nil {
		return "", err
	}
	return s.opKey(mach.canon.KeyString())
}

// opKey composes the spec key from the machine key and the fields the
// spec's op actually consumes.
func (s Spec) opKey(mk string) (string, error) {
	op := s.op()
	n := s.N
	procs, target, f := 0, 0.0, 0.0
	switch op {
	case OpOptimize, OpOptimizeSnapped:
	case OpSpeedup:
		procs = s.Procs
	case OpMinGrid:
		// The grid searches overwrite the problem's N during their
		// bracket-and-bisect, so the answer is independent of the seed;
		// excluding it keys all seeds to one cache entry.
		n, procs = 0, s.Procs
	case OpIsoeffGrid:
		n, procs, target = 0, s.Procs, s.Target
	case OpScaled:
		f = s.PointsPerProc
	case OpAmdahl, OpGustafson, OpCriticalPath:
		procs = s.Procs
	default:
		return "", fmt.Errorf("sweep: unknown op %q", op)
	}
	return fmt.Sprintf("%s|n=%d|st=%s|sh=%s|p=%d|e=%g|f=%g|%s",
		op, n, s.Stencil, s.Shape, procs, target, f, mk), nil
}

// Space is a Cartesian product of spec axes. Expand enumerates it in a
// fixed order (ns outermost, then stencils, shapes, machines, procs), so
// sweeps are reproducible and results reassemble positionally.
type Space struct {
	Op       Op                 `json:"op,omitempty"`
	Ns       []int              `json:"ns"`
	Stencils []string           `json:"stencils"`
	Shapes   []string           `json:"shapes"`
	Machines []core.MachineSpec `json:"machines"`

	// Procs is the per-spec processor axis for the ops that take one;
	// empty means the single value 0.
	Procs         []int   `json:"procs,omitempty"`
	Target        float64 `json:"target,omitempty"`
	PointsPerProc float64 `json:"points_per_proc,omitempty"`
}

// Size returns the number of specs Expand will produce, saturating at
// math.MaxInt if the axis product overflows — so limit checks of the
// form Size() > cap stay sound against adversarial axis lengths.
func (sp Space) Size() int {
	procs := len(sp.Procs)
	if procs == 0 {
		procs = 1
	}
	size := 1
	for _, d := range []int{len(sp.Ns), len(sp.Stencils), len(sp.Shapes), len(sp.Machines), procs} {
		if d == 0 {
			return 0
		}
		if size > math.MaxInt/d {
			return math.MaxInt
		}
		size *= d
	}
	return size
}

// Expand enumerates the space as a deterministic spec list. A space
// whose axis product overflows (Size() saturated) cannot be
// materialized and expands to nil; RunSpace turns that into an error.
func (sp Space) Expand() []Spec {
	size := sp.Size()
	if size == math.MaxInt {
		return nil
	}
	specs := make([]Spec, size)
	for i := range specs {
		specs[i] = sp.At(i)
	}
	return specs
}

// At returns Expand()[i] without expanding the space: a mixed-radix
// decode of i in Expand's nesting order (procs innermost, ns
// outermost). i must lie in [0, Size()).
func (sp Space) At(i int) Spec {
	s := Spec{Op: sp.Op, Target: sp.Target, PointsPerProc: sp.PointsPerProc}
	if len(sp.Procs) > 0 {
		s.Procs = sp.Procs[i%len(sp.Procs)]
		i /= len(sp.Procs)
	}
	s.Machine = sp.Machines[i%len(sp.Machines)]
	i /= len(sp.Machines)
	s.Shape = sp.Shapes[i%len(sp.Shapes)]
	i /= len(sp.Shapes)
	s.Stencil = sp.Stencils[i%len(sp.Stencils)]
	s.N = sp.Ns[i/len(sp.Stencils)]
	return s
}

// Batch is the work of one sweep request: a flat spec list or a
// Cartesian space. Exactly one of the fields should be set. A result
// names its spec by index into the batch, so the request is the one
// place a result's spec is kept.
type Batch struct {
	Specs []Spec
	Space *Space
}

// Size returns the batch's spec count (math.MaxInt for a space whose
// axis product overflows).
func (b Batch) Size() int {
	if b.Space != nil {
		return b.Space.Size()
	}
	return len(b.Specs)
}

// At returns the batch's spec at index i, decoding a space position
// rather than expanding the space.
func (b Batch) At(i int) Spec {
	if b.Space != nil {
		return b.Space.At(i)
	}
	return b.Specs[i]
}

// evaluate computes the spec's quantity through the core model, using
// the problem and machine the caller already resolved, and writes it
// into a, which the caller has reset. It is pure: equal specs produce
// equal answers, which is what makes the cache sound.
func evaluate(s Spec, r resolved, a *Answer) {
	d, _ := lookupOp(s.Op)
	if d == nil {
		a.Err = errUnknownOp(s.Op)
		return
	}
	d.eval(s, r, a)
}

// Alloc is an optimal allocation's numbers: core.Allocation without
// its problem and machine name, which the spec it answers already
// determines.
type Alloc struct {
	Procs     int     // optimal number of processors
	Area      float64 // n²/Procs, the (idealized equal) partition area
	CycleTime float64 // optimized per-iteration time (seconds)
	Speedup   float64 // SerialTime / CycleTime

	UsedAll  bool // Procs equals the admissible maximum
	Single   bool // the whole grid is best kept on one processor
	Interior bool // optimum strictly between 1 and the maximum (bus regime)

	ContinuousArea float64 // closed-form Â/ŝ² when available, else Area
}

// allocOf keeps the numbers of a core allocation.
func allocOf(a core.Allocation) Alloc {
	return Alloc{
		Procs: a.Procs, Area: a.Area, CycleTime: a.CycleTime, Speedup: a.Speedup,
		UsedAll: a.UsedAll, Single: a.Single, Interior: a.Interior,
		ContinuousArea: a.ContinuousArea,
	}
}

// SerialFraction is the Karp-Flatt effective serial fraction at this
// optimal allocation (core.Allocation.SerialFraction).
func (a Alloc) SerialFraction() float64 {
	return core.Allocation{Procs: a.Procs, Speedup: a.Speedup}.SerialFraction()
}

// Answer is one evaluated spec without the spec: the spec's index in
// its request, whether the cache answered it, and the payload. Exactly
// one of the payload fields is meaningful, per the spec's op. Stored
// results (job slabs, the write-ahead log) keep answers only and name
// each spec from the request (Batch.At).
type Answer struct {
	// Index is the spec's position in the submitted request; collected
	// results are ordered by it.
	Index    int  `json:"index"`
	CacheHit bool `json:"cache_hit"`

	// Alloc holds the allocation for the optimize ops.
	Alloc Alloc `json:"-"`
	// Value is the headline scalar: optimal or evaluated speedup.
	Value float64 `json:"value,omitempty"`
	// Grid is the found grid size for the grid-search ops.
	Grid int `json:"grid,omitempty"`
	// Scaled is the series point for OpScaled.
	Scaled core.ScaledPoint `json:"-"`

	Err error `json:"-"`
}

// ErrText is the answer's error as the wire shows it: empty for none,
// and a recovered evaluation panic masked, so panic text never leaves
// the node.
func (a *Answer) ErrText() string {
	switch {
	case a.Err == nil:
		return ""
	case errors.Is(a.Err, ErrEvaluationPanic):
		return "internal evaluation error"
	}
	return a.Err.Error()
}

// Result is one evaluated spec: the spec and its answer.
type Result struct {
	Spec Spec `json:"spec"`
	Answer
}
