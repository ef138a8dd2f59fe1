package dispatch

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"optspeed/internal/core"
	"optspeed/internal/sweep"
	"optspeed/internal/telemetry"
)

// requestIDHeader names the request-id header the service's middleware
// reads and echoes; forwarding it makes coordinator and peer log lines
// joinable on one id.
const requestIDHeader = "X-Request-ID"

// streamPath is the peer endpoint one shard is evaluated through: the
// v2 NDJSON stream delivers results as the peer computes them, so a
// dying peer costs only its undelivered suffix.
const streamPath = "/v2/sweeps/stream"

// maxLineBytes bounds one NDJSON line from a peer. A result line is a
// few hundred bytes; a megabyte means the peer is broken.
const maxLineBytes = 1 << 20

// shardBody mirrors the service's SweepRequest wire shape.
type shardBody struct {
	Specs []sweep.Spec `json:"specs,omitempty"`
	Space *sweep.Space `json:"space,omitempty"`
}

// wireResult mirrors the service's SweepResultJSON, minus the echoed
// spec: the coordinator planned the shard, so it names each result's
// spec from its own plan and skips the peer's copy. Index is
// shard-local (the peer sees the shard as a whole sweep); the
// accumulator restores the global offset.
type wireResult struct {
	Index     int     `json:"index"`
	CacheHit  bool    `json:"cache_hit"`
	Procs     int     `json:"procs"`
	ProcsUsed float64 `json:"procs_used"`
	Area      float64 `json:"area"`
	CycleTime float64 `json:"cycle_time"`
	Speedup   float64 `json:"speedup"`
	Grid      int     `json:"grid"`
	Value     float64 `json:"value"`
	Error     string  `json:"error"`
}

// wireLine mirrors one NDJSON line of the stream.
type wireLine struct {
	Result *wireResult `json:"result"`
	Done   bool        `json:"done"`
}

// resultFromWire reconstructs the engine result a wire line encodes for
// spec s, the spec the coordinator planned at the line's index. The
// mapping is the exact inverse of the service's sweepResultJSON for
// every field that reaches the wire, so re-encoding a gathered result
// on the coordinator reproduces the peer's bytes — the property the
// distributed-equivalence golden test pins end to end.
func resultFromWire(s sweep.Spec, w *wireResult) sweep.Result {
	r := sweep.Result{Spec: s, Answer: sweep.Answer{
		Index:    w.Index,
		CacheHit: w.CacheHit,
		Value:    w.Value,
		Grid:     w.Grid,
	}}
	if w.Error != "" {
		r.Err = errors.New(w.Error)
		return r
	}
	if w.Procs > 0 {
		r.Alloc = sweep.Alloc{
			Procs:     w.Procs,
			Area:      w.Area,
			CycleTime: w.CycleTime,
			Speedup:   w.Speedup,
		}
	}
	if s.Op == sweep.OpScaled {
		r.Scaled = core.ScaledPoint{
			Procs:     w.ProcsUsed,
			CycleTime: w.CycleTime,
			Speedup:   w.Speedup,
		}
	}
	return r
}

// fetchShard streams one shard from a peer into the accumulator. It
// returns nil only for a complete delivery: a 200 response, a
// well-formed NDJSON stream ending in a done line, and full index
// coverage (counting results earlier attempts already delivered).
// Everything else — transport failure, non-200, malformed lines,
// out-of-range indices, a stream that ends early, a done line with
// gaps — is an error, and whatever valid results arrived first stay
// accepted for the next attempt to top up.
func (d *Dispatcher) fetchShard(ctx context.Context, peer *peerState, sh shard, acc *shardAccumulator) error {
	ctx, cancel := context.WithTimeout(ctx, d.shardTimeout)
	defer cancel()

	payload, err := json.Marshal(shardBody{Specs: sh.work.Specs, Space: sh.work.Space})
	if err != nil {
		return fmt.Errorf("dispatch: encode shard: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer.url+streamPath, bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("dispatch: build shard request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	// Shard gathering wants wire throughput, not per-result latency:
	// ask the peer to let net/http coalesce lines into full frames
	// instead of flushing per chunk.
	req.Header.Set("X-Stream-Flush", "batch")
	// Propagate the attempt's deadline (the parent request's, capped by
	// the shard timeout) so the peer stops evaluating the moment the
	// coordinator would discard its results anyway.
	if dl, ok := ctx.Deadline(); ok {
		req.Header.Set("X-Request-Deadline", dl.UTC().Format(time.RFC3339Nano))
	}
	// Forward the originating request id and trace coordinates so the
	// peer's access log and spans are joinable with the coordinator's.
	// The parent span is the shard span runShard opened, so a peer-side
	// trace view nests each remote evaluation under its shard.
	if id := telemetry.RequestIDFrom(ctx); id != "" {
		req.Header.Set(requestIDHeader, id)
	}
	if tid := telemetry.TraceIDFrom(ctx); tid != "" {
		req.Header.Set(telemetry.TraceIDHeader, tid)
		if sid := telemetry.SpanIDFrom(ctx); sid != "" {
			req.Header.Set(telemetry.ParentSpanHeader, sid)
		}
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return fmt.Errorf("dispatch: shard post: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("dispatch: peer returned %d: %s", resp.StatusCode, bytes.TrimSpace(snippet))
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	var wire wireResult
	for sc.Scan() {
		raw := sc.Bytes()
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		isResult, doneLine, err := decodeLine(raw, &wire)
		if err != nil {
			return fmt.Errorf("dispatch: malformed stream line: %w", err)
		}
		switch {
		case isResult:
			local := wire.Index
			if local < 0 || local >= sh.size {
				return fmt.Errorf("dispatch: shard index %d out of range [0, %d)", local, sh.size)
			}
			r := resultFromWire(sh.work.At(local), &wire)
			r.Index += sh.start
			// Duplicate deliveries are dropped here, not errored:
			// first delivery wins and progress is counted once.
			acc.accept(local, r)
		case doneLine:
			if missing := acc.missing(); missing > 0 {
				return fmt.Errorf("dispatch: peer finished with %d of %d specs missing", missing, sh.size)
			}
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("dispatch: shard stream: %w", err)
	}
	return fmt.Errorf("dispatch: shard stream ended without completion marker")
}
