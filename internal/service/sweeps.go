package service

import (
	"net/http"
	"time"

	"optspeed/internal/dispatch"
	"optspeed/internal/sweep"
)

// SweepRequest carries explicit specs, a Cartesian space, or both
// (the space is expanded and appended after the explicit specs). It is
// the shared sweep body of v1 /sweep, v2 job submission, and v2
// streaming.
type SweepRequest struct {
	Specs []sweep.Spec `json:"specs,omitempty"`
	Space *sweep.Space `json:"space,omitempty"`
}

// SweepResultJSON is the wire form of one evaluated spec. The payload
// fields mirror sweep.Result: allocation fields for the optimize ops,
// Grid for the grid searches, Value for scalar ops, and ProcsUsed (a
// real-valued processor count, plus CycleTime/Speedup) for scaled
// points, where the machine grows fractionally with the problem.
//
// On the hot paths (v1 /sweep bodies, results pages, NDJSON lines) the
// wire bytes are produced by the AppendJSON encoders in encode.go, not
// encoding/json; the struct tags here remain the contract the encoders
// are held to byte-for-byte by the encode_test.go identity tests.
type SweepResultJSON struct {
	Index     int        `json:"index"`
	Spec      sweep.Spec `json:"spec"`
	CacheHit  bool       `json:"cache_hit"`
	Procs     int        `json:"procs,omitempty"`
	ProcsUsed float64    `json:"procs_used,omitempty"`
	Area      float64    `json:"area,omitempty"`
	CycleTime float64    `json:"cycle_time,omitempty"`
	Speedup   float64    `json:"speedup,omitempty"`
	Grid      int        `json:"grid,omitempty"`
	Value     float64    `json:"value,omitempty"`
	Error     string     `json:"error,omitempty"`
}

// SweepStats summarizes one sweep's cache interaction.
type SweepStats struct {
	Specs     int `json:"specs"`
	CacheHits int `json:"cache_hits"`
	Evaluated int `json:"evaluated"`
	Errors    int `json:"errors"`
}

// observe counts one answer.
func (st *SweepStats) observe(a *sweep.Answer) {
	st.Specs++
	switch {
	case a.Err != nil:
		st.Errors++
	case a.CacheHit:
		st.CacheHits++
	default:
		st.Evaluated++
	}
}

// SweepResponse is the body of a completed v1 sweep. The hot path
// encodes this shape through sweepBody; the struct remains for clients
// and the encoder-identity tests.
type SweepResponse struct {
	Results []SweepResultJSON `json:"results"`
	Stats   SweepStats        `json:"stats"`
}

// handleSweep is the v1 synchronous adapter: the batch runs through the
// same jobs core as v2 — bound to the request context, never retained.
// The handler encodes each chunk's results into a pooled sweepBody as
// the chunk lands, while the engine's workers keep evaluating, so the
// encode overlaps evaluation instead of trailing it; at the end the
// results are copied out in index order and sent in one write.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.admitRequest(w, r); !ok {
		return
	}
	var req SweepRequest
	if prob := s.decodeBody(r, w, &req); prob != nil {
		prob.writeV1(s, w, r)
		return
	}
	jreq, prob := s.sweepJobRequest(req)
	if prob != nil {
		prob.writeV1(s, w, r)
		return
	}
	release, ok := s.admitEvaluation(w, r, jreq.Size())
	if !ok {
		return
	}
	defer release()
	ch, total, err := s.store.Open(r.Context(), jreq)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	body := getSweepBody(total)
	defer putSweepBody(body)
	engine := s.store.Engine()
	for c := range ch {
		body.add(c.Results)
		engine.Recycle(c)
	}
	if r.Context().Err() != nil {
		s.writeSyncFailure(w, r)
		return
	}
	if !body.complete() {
		// The stream ended short with the context alive: never send a
		// body with a hole in it.
		s.writeError(w, r, http.StatusInternalServerError,
			"sweep ended after %d of %d results", body.stats.Specs, total)
		return
	}
	buf := getBuf()
	*buf = body.appendTo(*buf)
	s.writeRaw(w, r, http.StatusOK, *buf)
	putBuf(buf)
}

// StreamLine is one NDJSON line of POST /v2/sweeps/stream: result lines
// carry Result; the final line carries Done plus the run's Stats. The
// wire bytes come from appendStreamResultLine/appendStreamDoneLine.
type StreamLine struct {
	Result *SweepResultJSON `json:"result,omitempty"`
	Done   bool             `json:"done,omitempty"`
	Stats  *SweepStats      `json:"stats,omitempty"`
}

// handleSweepStream streams results straight off the engine's chunk
// channel as NDJSON — one line per result, encoded into a pooled
// buffer, flushed once per chunk (per result when the engine is the
// bottleneck, batched under backpressure) — and hands each chunk
// buffer back to the engine's pool. The response clears the
// connection's write deadline for its own duration, exempting long
// streams from the daemon's blanket WriteTimeout.
//
// The distributed shard coordinator sends "X-Stream-Format: answers"
// and gets dispatch's answer records instead: no echoed spec and no
// float text, batch-flushed (net/http's write buffering coalesces
// them into full TCP frames).
func (s *Server) handleSweepStream(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.admitRequest(w, r); !ok {
		return
	}
	var req SweepRequest
	if prob := s.decodeBody(r, w, &req); prob != nil {
		prob.writeV2(s, w, r)
		return
	}
	jreq, prob := s.sweepJobRequest(req)
	if prob != nil {
		prob.writeV2(s, w, r)
		return
	}
	// The gate slot is held for the stream's whole duration: rejection
	// happens here, before the 200 and the first byte, so an admitted
	// stream is never severed by admission control.
	release, ok := s.admitEvaluation(w, r, jreq.Size())
	if !ok {
		return
	}
	defer release()
	// The jobs core owns the request→engine dispatch (space fast path
	// vs flat specs); the stream endpoint just doesn't register a job.
	ch, _, err := s.store.Open(r.Context(), jreq)
	if err != nil {
		s.writeV2Error(w, r, http.StatusBadRequest, codeInvalidRequest, "%v", err)
		return
	}

	rc := http.NewResponseController(w)
	// A stream's lifetime is the sweep's, not the server's WriteTimeout;
	// the zero time clears the per-connection deadline for this response
	// only (ignored by writers that don't support deadlines, such as
	// httptest recorders).
	_ = rc.SetWriteDeadline(time.Time{})
	answers := r.Header.Get(dispatch.StreamFormatHeader) == dispatch.StreamFormatAnswers
	if answers {
		w.Header().Set("Content-Type", dispatch.AnswersContentType)
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	buf := getBuf()
	defer putBuf(buf)
	engine := s.store.Engine()
	var stats SweepStats
	for c := range ch {
		*buf = (*buf)[:0]
		for i := range c.Results {
			if answers {
				*buf = dispatch.AppendAnswerRecord(*buf, &c.Results[i].Answer)
				continue
			}
			stats.observe(&c.Results[i].Answer)
			*buf = appendStreamResultLine(*buf, &c.Results[i].Spec, &c.Results[i].Answer)
		}
		engine.Recycle(c)
		if _, err := w.Write(*buf); err != nil {
			return // client gone; the engine stream stops with the context
		}
		if !answers {
			_ = rc.Flush()
		}
	}
	if r.Context().Err() != nil {
		return
	}
	if answers {
		*buf = dispatch.AppendDoneRecord((*buf)[:0])
	} else {
		*buf = appendStreamDoneLine((*buf)[:0], &stats)
	}
	if _, err := w.Write(*buf); err != nil {
		s.logEncodeError(r, err)
		return
	}
	_ = rc.Flush()
}
