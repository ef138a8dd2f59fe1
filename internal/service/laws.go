package service

import (
	"fmt"
	"net/http"

	"optspeed/internal/core"
	"optspeed/internal/jobs"
	"optspeed/internal/sweep"
)

// LawsRequest is the body of POST /v2/laws: one problem + machine, and
// an optional processor axis. An empty axis defaults to powers of two
// up to the problem's decomposition bound.
type LawsRequest struct {
	N       int              `json:"n"`
	Stencil string           `json:"stencil"`
	Shape   string           `json:"shape"`
	Machine core.MachineSpec `json:"machine"`
	Procs   []int            `json:"procs,omitempty"`
}

// LawsPoint is the four-curve overlay at one processor count: the
// paper's model speedup, fixed-size Amdahl and scaled Gustafson-Barsis
// at the model-implied serial fraction, and Gunther's critical-path
// bound min(P, T₁/T∞).
type LawsPoint struct {
	Procs        int     `json:"procs"`
	Model        float64 `json:"model"`
	Amdahl       float64 `json:"amdahl"`
	Gustafson    float64 `json:"gustafson"`
	CriticalPath float64 `json:"critical_path"`
}

// LawsDivergence marks the first axis point where two curves part ways
// (or a curve changes regime). Kind is a stable machine-readable
// string; Detail is human text and may change.
type LawsDivergence struct {
	Kind   string `json:"kind"`
	Procs  int    `json:"procs"`
	Detail string `json:"detail"`
}

// LawsResponse is the comparative overlay: the resolved problem and
// canonical machine, the scalar anchors (serial fraction, critical-path
// ratio, the model's optimal allocation), one LawsPoint per axis value,
// and the divergence markers.
type LawsResponse struct {
	N                 int              `json:"n"`
	Stencil           string           `json:"stencil"`
	Shape             string           `json:"shape"`
	Machine           core.MachineSpec `json:"machine"`
	SerialFraction    float64          `json:"serial_fraction"`
	CriticalPathRatio float64          `json:"critical_path_ratio"`
	OptimalProcs      int              `json:"optimal_procs"`
	OptimalSpeedup    float64          `json:"optimal_speedup"`
	Points            []LawsPoint      `json:"points"`
	Divergences       []LawsDivergence `json:"divergences"`
	Stats             SweepStats       `json:"stats"`
}

// lawsDivergeFactor is the relative gap at which two overlay curves are
// reported as diverged.
const lawsDivergeFactor = 0.1

// defaultLawsProcs is the default axis: powers of two up to the
// problem's decomposition bound.
func defaultLawsProcs(maxP int) []int {
	var procs []int
	for q := 1; q <= maxP; q *= 2 {
		procs = append(procs, q)
		if q > maxP/2 {
			break
		}
	}
	return procs
}

// lawsSpecs lays the overlay out as one flat spec list — the optimal
// allocation first, then per axis value the model speedup and the three
// laws — so the whole evaluation runs through the ordinary sweep
// machinery: engine cache, admission cost accounting, and (on a
// coordinator) dispatch across workers.
func lawsSpecs(req LawsRequest, procs []int) []sweep.Spec {
	base := sweep.Spec{N: req.N, Stencil: req.Stencil, Shape: req.Shape, Machine: req.Machine}
	specs := make([]sweep.Spec, 0, 1+4*len(procs))
	opt := base
	opt.Op = sweep.OpOptimize
	specs = append(specs, opt)
	for _, q := range procs {
		for _, op := range [...]sweep.Op{sweep.OpSpeedup, sweep.OpAmdahl, sweep.OpGustafson, sweep.OpCriticalPath} {
			s := base
			s.Op, s.Procs = op, q
			specs = append(specs, s)
		}
	}
	return specs
}

// handleLaws serves POST /v2/laws: it validates the problem/machine
// pair and the axis up front (bad requests never touch the admission
// gate), evaluates the overlay through the jobs core under one
// admission slot per spec, and assembles the comparison.
func (s *Server) handleLaws(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.admitRequest(w, r); !ok {
		return
	}
	var req LawsRequest
	if prob := s.decodeBody(r, w, &req); prob != nil {
		prob.writeV2(s, w, r)
		return
	}
	base := sweep.Spec{N: req.N, Stencil: req.Stencil, Shape: req.Shape, Machine: req.Machine}
	problem, err := base.Problem()
	if err != nil {
		s.writeV2Error(w, r, http.StatusBadRequest, codeInvalidRequest, "%v", err)
		return
	}
	if err := base.Validate(); err != nil {
		s.writeV2Error(w, r, http.StatusBadRequest, codeInvalidRequest, "%v", err)
		return
	}
	arch, err := req.Machine.Machine()
	if err != nil {
		s.writeV2Error(w, r, http.StatusBadRequest, codeInvalidRequest, "%v", err)
		return
	}
	canon, err := core.SpecFor(arch)
	if err != nil {
		s.writeV2Error(w, r, http.StatusBadRequest, codeInvalidRequest, "%v", err)
		return
	}
	maxP := problem.MaxProcs()
	procs := req.Procs
	if len(procs) == 0 {
		procs = defaultLawsProcs(maxP)
	} else {
		for i, q := range procs {
			if q < 1 || q > maxP {
				s.writeV2Error(w, r, http.StatusBadRequest, codeInvalidRequest,
					"procs[%d]=%d out of range [1, %d]", i, q, maxP)
				return
			}
			if i > 0 && q <= procs[i-1] {
				s.writeV2Error(w, r, http.StatusBadRequest, codeInvalidRequest,
					"procs axis must be strictly increasing (procs[%d]=%d after %d)", i, q, procs[i-1])
				return
			}
		}
	}
	specs := lawsSpecs(req, procs)
	if len(specs) > s.maxSpecs {
		s.writeV2Error(w, r, http.StatusRequestEntityTooLarge, codeTooLarge,
			"laws overlay of %d specs exceeds the limit of %d", len(specs), s.maxSpecs)
		return
	}
	release, ok := s.admitEvaluation(w, r, len(specs))
	if !ok {
		return
	}
	defer release()
	results, err := s.store.RunSync(r.Context(), jobs.Request{Kind: jobs.KindSweep, Specs: specs})
	if err != nil {
		s.writeSyncFailure(w, r)
		return
	}
	var stats SweepStats
	for i := range results {
		stats.observe(&results[i].Answer)
		if results[i].Err != nil {
			// The axis was validated against the same range the evaluators
			// enforce, so a per-result error here is an internal fault, not
			// a client one.
			s.writeV2Error(w, r, http.StatusInternalServerError, codeInternal,
				"laws evaluation failed at spec %d", i)
			return
		}
	}
	// The scalar anchors come straight from the overlay's own results:
	// the optimal allocation is spec 0, and the critical-path ratio is a
	// direct (cached-by-construction) model query.
	opt := results[0].Alloc
	pi, err := core.CriticalPathRatio(problem, arch)
	if err != nil {
		s.writeV2Error(w, r, http.StatusInternalServerError, codeInternal, "laws evaluation failed")
		return
	}
	resp := LawsResponse{
		N:                 problem.N,
		Stencil:           req.Stencil,
		Shape:             req.Shape,
		Machine:           canon,
		SerialFraction:    opt.SerialFraction(),
		CriticalPathRatio: pi,
		OptimalProcs:      opt.Procs,
		OptimalSpeedup:    opt.Speedup,
		Points:            make([]LawsPoint, len(procs)),
		Stats:             stats,
	}
	for i, q := range procs {
		base := 1 + 4*i
		resp.Points[i] = LawsPoint{
			Procs:        q,
			Model:        results[base].Value,
			Amdahl:       results[base+1].Value,
			Gustafson:    results[base+2].Value,
			CriticalPath: results[base+3].Value,
		}
	}
	resp.Divergences = lawsDivergences(resp.Points, opt.Procs, pi)
	s.writeJSON(w, r, http.StatusOK, resp)
}

// lawsDivergences walks the overlay left to right and marks the first
// axis point of each regime change: the model departing from Amdahl's
// fixed-fraction curve (communication structure a constant f cannot
// express), scaled Gustafson pulling away from fixed-size Amdahl, the
// critical-path bound saturating at T₁/T∞, and the axis passing the
// model's optimum. The walk is deterministic, so the marker set is
// byte-stable for a given overlay.
func lawsDivergences(points []LawsPoint, optProcs int, pi float64) []LawsDivergence {
	var out []LawsDivergence
	for _, pt := range points {
		if rel(pt.Model, pt.Amdahl) > lawsDivergeFactor {
			out = append(out, LawsDivergence{
				Kind:  "model_vs_amdahl",
				Procs: pt.Procs,
				Detail: fmt.Sprintf("model speedup %.4g vs Amdahl %.4g: communication cost is not a fixed serial fraction",
					pt.Model, pt.Amdahl),
			})
			break
		}
	}
	for _, pt := range points {
		if pt.Amdahl > 0 && (pt.Gustafson-pt.Amdahl)/pt.Amdahl > lawsDivergeFactor {
			out = append(out, LawsDivergence{
				Kind:  "gustafson_vs_amdahl",
				Procs: pt.Procs,
				Detail: fmt.Sprintf("scaled speedup %.4g vs fixed-size %.4g at equal serial fraction",
					pt.Gustafson, pt.Amdahl),
			})
			break
		}
	}
	for _, pt := range points {
		if float64(pt.Procs) >= pi {
			out = append(out, LawsDivergence{
				Kind:   "critical_path_saturates",
				Procs:  pt.Procs,
				Detail: fmt.Sprintf("Brent clamp ends: bound saturates at T1/Tinf = %.4g", pi),
			})
			break
		}
	}
	for _, pt := range points {
		if pt.Procs > optProcs {
			out = append(out, LawsDivergence{
				Kind:   "past_optimal",
				Procs:  pt.Procs,
				Detail: fmt.Sprintf("beyond the model's optimal allocation P* = %d", optProcs),
			})
			break
		}
	}
	return out
}

// rel is the relative gap |a−b| / max(|b|, tiny).
func rel(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if b < 0 {
		b = -b
	}
	if b == 0 {
		return 0
	}
	return d / b
}
