package client

import (
	"context"
	"net/http"

	"optspeed/internal/service"
)

// The /v2/laws types: LawsRequest is one problem + machine and an
// optional strictly increasing processor axis (empty = the server's
// default powers-of-two axis). LawsResponse compares the paper's model
// with Amdahl, Gustafson-Barsis, and the critical-path bound, one
// LawsPoint per axis value, with LawsDivergence marking where two
// curves part ways; its Stats counts the specs the overlay evaluated.
type (
	LawsRequest    = service.LawsRequest
	LawsPoint      = service.LawsPoint
	LawsDivergence = service.LawsDivergence
	LawsResponse   = service.LawsResponse
)

// Laws evaluates the scaling-law overlay — the paper's model against
// Amdahl, Gustafson-Barsis, and the critical-path bound — for one
// problem/machine pair across a processor axis.
func (c *Client) Laws(ctx context.Context, req LawsRequest) (*LawsResponse, error) {
	var resp LawsResponse
	if err := c.do(ctx, http.MethodPost, "/v2/laws", nil, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
