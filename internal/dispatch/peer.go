package dispatch

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"optspeed/internal/sweep"
	"optspeed/internal/telemetry"
)

// requestIDHeader names the request-id header the service's middleware
// reads and echoes; forwarding it makes coordinator and peer log lines
// joinable on one id.
const requestIDHeader = "X-Request-ID"

// streamPath is the peer endpoint one shard is evaluated through: the
// v2 stream delivers answers as the peer computes them, so a dying peer
// costs only its undelivered suffix.
const streamPath = "/v2/sweeps/stream"

// shardBody mirrors the service's SweepRequest wire shape.
type shardBody struct {
	Specs []sweep.Spec `json:"specs,omitempty"`
	Space *sweep.Space `json:"space,omitempty"`
}

// readerPool holds the 4 KB buffers shard answer streams are read
// through, so an attempt allocates no buffer of its own.
var readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 4096) }}

// fetchShard streams one shard from a peer into the accumulator. It
// returns nil only for a complete delivery: a 200 answer-record
// response ending in a done record, and full index coverage (counting
// answers earlier attempts already delivered). Everything else —
// transport failure, non-200, another content type (a worker that
// predates the record stream), a framing fault, an out-of-range index,
// a stream that ends early, a done record with gaps — is an error, and
// whatever valid answers arrived first stay accepted for the next
// attempt to top up.
func (d *Dispatcher) fetchShard(ctx context.Context, peer *peerState, sh shard, acc *shardAccumulator) error {
	ctx, cancel := context.WithTimeout(ctx, DefaultShardTimeout)
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
	// Answer records, which the peer writes without per-chunk flushes:
	// shard gathering wants wire throughput, not per-result latency.
	req.Header.Set(StreamFormatHeader, StreamFormatAnswers)
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
	if ct := resp.Header.Get("Content-Type"); ct != AnswersContentType {
		return fmt.Errorf("dispatch: peer answered %q, not %s", ct, AnswersContentType)
	}

	br := readerPool.Get().(*bufio.Reader)
	br.Reset(resp.Body)
	defer func() {
		br.Reset(nil)
		readerPool.Put(br)
	}()
	var a sweep.Answer
	for {
		done, err := ReadAnswerRecord(br, &a)
		switch {
		case err == io.EOF:
			return fmt.Errorf("dispatch: shard stream ended without a done record")
		case err != nil:
			return fmt.Errorf("dispatch: shard stream: %w", err)
		case done:
			if missing := acc.missing(); missing > 0 {
				return fmt.Errorf("dispatch: peer finished with %d of %d specs missing", missing, sh.size)
			}
			return nil
		}
		local := a.Index
		if local < 0 || local >= sh.size {
			return fmt.Errorf("dispatch: shard index %d out of range [0, %d)", local, sh.size)
		}
		a.Index += sh.start
		// Duplicate deliveries are dropped here, not errored: first
		// delivery wins and progress is counted once.
		acc.accept(local, sweep.Result{Spec: sh.work.At(local), Answer: a})
	}
}
