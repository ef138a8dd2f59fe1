package client

import (
	"context"
	"net/http"
	"net/url"

	"optspeed/internal/dispatch"
	"optspeed/internal/service"
)

// The body of GET /v2/cluster: ClusterStatus reports "single" mode for
// a plain daemon, "coordinator" with per-peer health (PeerStatus) for
// a sharding one, plus the scatter and hedge counters (ShardStats).
// PeerChange acknowledges a roster change with the resulting member
// list in rotation order.
type (
	ClusterStatus = dispatch.ClusterStatus
	PeerStatus    = dispatch.PeerStatus
	ShardStats    = dispatch.Stats
	PeerChange    = service.PeerChangeResponse
)

// Cluster fetches the server's cluster status: its mode, a live health
// probe of every configured peer, and the shard scatter counters.
func (c *Client) Cluster(ctx context.Context) (*ClusterStatus, error) {
	var st ClusterStatus
	if err := c.do(ctx, http.MethodGet, "/v2/cluster", nil, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// AddPeer admits a worker into the coordinator's live roster. The
// server answers 409 (surfaced as an *APIError) when the peer is
// already a member.
func (c *Client) AddPeer(ctx context.Context, peerURL string) (*PeerChange, error) {
	var out PeerChange
	if err := c.do(ctx, http.MethodPost, "/v2/cluster/peers", nil, service.PeerRequest{URL: peerURL}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RemovePeer evicts a worker from the coordinator's live roster; its
// in-flight shards are reassigned immediately. The server answers 404
// when the URL is not a member.
func (c *Client) RemovePeer(ctx context.Context, peerURL string) (*PeerChange, error) {
	var out PeerChange
	q := url.Values{"url": {peerURL}}
	if err := c.do(ctx, http.MethodDelete, "/v2/cluster/peers", q, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
