package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"optspeed/internal/service"
)

// SweepStats summarizes a finished stream.
type SweepStats = service.SweepStats

// ResultStream iterates results as the server computes them, straight
// off the engine channel. Close it when done (cancelling ctx also tears
// the stream down server-side).
type ResultStream struct {
	body  io.ReadCloser
	sc    *bufio.Scanner
	cur   Result
	stats *SweepStats
	err   error
}

// StreamSweep opens an NDJSON stream for the request. Results arrive in
// completion order as they are evaluated; after a clean end, Stats
// reports the run's totals.
//
//	st, err := c.StreamSweep(ctx, req)
//	if err != nil { ... }
//	defer st.Close()
//	for st.Next() {
//		r := st.Result()
//	}
//	err = st.Err()
func (c *Client) StreamSweep(ctx context.Context, req SweepRequest) (*ResultStream, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: encode request: %w", err)
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.endpoint("/v2/sweeps/stream", nil), bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("client: build request: %w", err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if c.apiKey != "" {
		httpReq.Header.Set("Authorization", "Bearer "+c.apiKey)
	}
	resp, err := c.hc.Do(httpReq)
	if err != nil {
		return nil, fmt.Errorf("client: open stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		return nil, apiError(resp, raw)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	return &ResultStream{body: resp.Body, sc: sc}, nil
}

// Next advances to the next streamed result, blocking until the server
// produces one. It returns false at the end of the stream or on error;
// check Err afterwards.
func (s *ResultStream) Next() bool {
	if s.err != nil || s.stats != nil {
		return false
	}
	for s.sc.Scan() {
		var line service.StreamLine
		if err := json.Unmarshal(s.sc.Bytes(), &line); err != nil {
			s.err = fmt.Errorf("client: bad stream line: %w", err)
			return false
		}
		switch {
		case line.Result != nil:
			s.cur = *line.Result
			return true
		case line.Done:
			s.stats = line.Stats
			if s.stats == nil {
				s.stats = &SweepStats{}
			}
			return false
		}
	}
	if err := s.sc.Err(); err != nil {
		s.err = fmt.Errorf("client: stream read: %w", err)
	} else {
		// EOF without a done line: the server (or connection) died
		// mid-stream.
		s.err = fmt.Errorf("client: stream ended without completion marker")
	}
	return false
}

// Result returns the current result; valid after Next reports true.
func (s *ResultStream) Result() Result { return s.cur }

// Stats returns the run totals after a clean end (nil otherwise).
func (s *ResultStream) Stats() *SweepStats { return s.stats }

// Err reports the first error the stream hit (nil on clean end).
func (s *ResultStream) Err() error { return s.err }

// Close releases the underlying connection.
func (s *ResultStream) Close() error { return s.body.Close() }
