package service

import (
	"errors"
	"net/http"

	"optspeed/internal/dispatch"
)

// handleCluster reports the coordinator's view of its worker fleet:
// mode ("single" when no peers are configured, "coordinator"
// otherwise), the shard-planning size, a live /healthz probe of every
// peer merged with its rolling shard ledger and membership state, the
// dispatcher's scatter/hedge counters, and the current hedge budget.
// The probe runs per request — this endpoint is the operator's
// peer-health check, so it must reflect the fleet now, not a cached
// verdict.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	s.writeJSONPretty(w, r, http.StatusOK, s.dispatcher.ClusterStatus(r.Context()))
}

// PeerRequest is the body of POST/DELETE /v2/cluster/peers.
type PeerRequest struct {
	// URL is the worker's base URL (http(s)://host[:port]).
	URL string `json:"url"`
}

// PeerChangeResponse acknowledges a roster change with the resulting
// member list in rotation order.
type PeerChangeResponse struct {
	Peers []string `json:"peers"`
}

// handlePeerAdd admits a worker into the live roster
// (POST /v2/cluster/peers). The -peers flag is only the seed list; the
// roster is owned by the dispatcher from then on. A URL that was
// removed earlier starts with a fresh ledger and breaker. 409 when the
// peer is already a member.
func (s *Server) handlePeerAdd(w http.ResponseWriter, r *http.Request) {
	var req PeerRequest
	if p := s.decodeBody(r, w, &req); p != nil {
		p.writeV2(s, w, r)
		return
	}
	if err := s.dispatcher.AddPeer(req.URL); err != nil {
		if errors.Is(err, dispatch.ErrPeerExists) {
			s.writeV2Error(w, r, http.StatusConflict, codeConflict, "peer %s is already a member", req.URL)
			return
		}
		s.writeV2Error(w, r, http.StatusBadRequest, codeInvalidRequest, "%v", err)
		return
	}
	s.writeJSONPretty(w, r, http.StatusOK, PeerChangeResponse{Peers: s.dispatcher.PeerURLs()})
}

// handlePeerRemove evicts a worker from the live roster
// (DELETE /v2/cluster/peers?url=... or with the same JSON body as the
// add). The peer's outstanding shard attempts are reclaimed and
// reassigned immediately, and its ledger and metric series are
// dropped. 404 when the URL is not a member.
func (s *Server) handlePeerRemove(w http.ResponseWriter, r *http.Request) {
	var req PeerRequest
	if req.URL = r.URL.Query().Get("url"); req.URL == "" {
		if p := s.decodeBody(r, w, &req); p != nil {
			p.writeV2(s, w, r)
			return
		}
	}
	if err := s.dispatcher.RemovePeer(req.URL); err != nil {
		if errors.Is(err, dispatch.ErrPeerUnknown) {
			s.writeV2Error(w, r, http.StatusNotFound, codeNotFound, "peer %s is not a member", req.URL)
			return
		}
		s.writeV2Error(w, r, http.StatusBadRequest, codeInvalidRequest, "%v", err)
		return
	}
	s.writeJSONPretty(w, r, http.StatusOK, PeerChangeResponse{Peers: s.dispatcher.PeerURLs()})
}
