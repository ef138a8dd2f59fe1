package service

import (
	"errors"
	"net/http"

	"optspeed/internal/core"
	"optspeed/internal/sweep"
)

// OptimizeRequest is one model query. Machine fields left zero take the
// calibrated defaults. Snapped is a compatibility alias: it runs the
// query as op optimize-snapped, which returns the same answer as
// optimize.
type OptimizeRequest struct {
	N       int              `json:"n"`
	Stencil string           `json:"stencil"`
	Shape   string           `json:"shape"`
	Machine core.MachineSpec `json:"machine"`
	Snapped bool             `json:"snapped,omitempty"`
}

// OptimizeResponse reports the optimal allocation.
type OptimizeResponse struct {
	N         int     `json:"n"`
	Stencil   string  `json:"stencil"`
	Shape     string  `json:"shape"`
	Arch      string  `json:"arch"`
	Procs     int     `json:"procs"`
	Area      float64 `json:"area"`
	CycleTime float64 `json:"cycle_time"`
	Speedup   float64 `json:"speedup"`
	UsedAll   bool    `json:"used_all"`
	Single    bool    `json:"single"`
	Interior  bool    `json:"interior"`
	CacheHit  bool    `json:"cache_hit"`
}

// handleOptimize is the v1 synchronous adapter: the query runs as a
// single-spec request through the same jobs core as v2, bound to the
// request context and never retained.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.admitRequest(w, r); !ok {
		return
	}
	var req OptimizeRequest
	if prob := s.decodeBody(r, w, &req); prob != nil {
		prob.writeV1(s, w, r)
		return
	}
	release, ok := s.admitEvaluation(w, r, 1)
	if !ok {
		return
	}
	defer release()
	results, err := s.store.RunSync(r.Context(), optimizeJobRequest(req))
	if err != nil {
		s.writeSyncFailure(w, r)
		return
	}
	res := results[0]
	if res.Err != nil {
		// A recovered panic is a server defect: 500, without the panic
		// text. Everything else is a bad spec.
		if errors.Is(res.Err, sweep.ErrEvaluationPanic) {
			s.writeError(w, r, http.StatusInternalServerError, "internal evaluation error")
			return
		}
		s.writeError(w, r, http.StatusBadRequest, "%v", res.Err)
		return
	}
	// The spec evaluated, so its machine resolves; the answer keeps only
	// numbers, and the machine names itself.
	arch, err := req.Machine.Machine()
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	s.writeJSON(w, r, http.StatusOK, OptimizeResponse{
		N:         req.N,
		Stencil:   req.Stencil,
		Shape:     req.Shape,
		Arch:      arch.Name(),
		Procs:     res.Alloc.Procs,
		Area:      res.Alloc.Area,
		CycleTime: res.Alloc.CycleTime,
		Speedup:   res.Alloc.Speedup,
		UsedAll:   res.Alloc.UsedAll,
		Single:    res.Alloc.Single,
		Interior:  res.Alloc.Interior,
		CacheHit:  res.CacheHit,
	})
}
