package dispatch_test

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"optspeed/internal/dispatch"
	"optspeed/internal/service"
	"optspeed/internal/sweep"
)

// newWorker starts one in-process optspeedd worker with a fresh (cold)
// engine, returning its base URL.
func newWorker(t *testing.T) string {
	t.Helper()
	srv := service.New(service.Config{Engine: sweep.New(sweep.Options{})})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts.URL
}

// newCoordinator starts an in-process coordinator over the given peers,
// with a fresh engine of its own, returning the base URL and the
// dispatcher for counter assertions.
func newCoordinator(t *testing.T, peers []string, shardSize int) (string, *dispatch.Dispatcher) {
	t.Helper()
	eng := sweep.New(sweep.Options{})
	d := dispatch.New(dispatch.Options{Engine: eng, Peers: peers, ShardSize: shardSize})
	srv := service.New(service.Config{Engine: eng, Dispatcher: d})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts.URL, d
}

// postSweep runs one POST /v1/sweep and returns status and body.
func postSweep(t *testing.T, base, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/sweep: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read sweep response: %v", err)
	}
	return resp.StatusCode, raw
}

// faultPeer wraps a real worker behind a fault-injecting front: mode
// selects the failure, and failN bounds how many requests fail before
// the peer turns healthy (-1 = always). The inner worker is a complete
// service instance, so successful passes produce real answer records.
type faultPeer struct {
	t     *testing.T
	inner http.Handler
	chaos http.Handler // serves mode "chaos": inner behind a chaos plane
	mode  atomic.Value // string, swappable while serving; "" passes through
	failN int64        // requests to sabotage; -1 = all
	seen  atomic.Int64
}

func newFaultPeer(t *testing.T, mode string, failN int64) string {
	t.Helper()
	srv := service.New(service.Config{Engine: sweep.New(sweep.Options{})})
	fp := &faultPeer{t: t, inner: srv.Handler(), failN: failN}
	fp.mode.Store(mode)
	ts := httptest.NewServer(fp)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts.URL
}

func (fp *faultPeer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := fp.seen.Add(1)
	mode, _ := fp.mode.Load().(string)
	sabotage := mode != "" && (fp.failN < 0 || n <= fp.failN)
	// Health probes always pass through: the faults under test are
	// shard-serving faults, not liveness ones.
	if !sabotage || r.URL.Path == "/healthz" {
		fp.inner.ServeHTTP(w, r)
		return
	}
	switch mode {
	case "slow":
		// Not a fault: a healthy peer that answers late, for ordering
		// tests where shard completion order inverts submission order.
		select {
		case <-time.After(150 * time.Millisecond):
		case <-r.Context().Done():
			return
		}
		fp.inner.ServeHTTP(w, r)
	case "stall":
		// Accepts the request and never answers: the canonical hung
		// peer for cancellation tests.
		w.Header().Set("Content-Type", dispatch.AnswersContentType)
		w.WriteHeader(http.StatusOK)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		<-r.Context().Done()
	case "chaos":
		fp.chaos.ServeHTTP(w, r)
	case "http-500":
		http.Error(w, "worker exploded", http.StatusInternalServerError)
	case "garbage":
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, "this is not json\n{\"result\": [broken\n")
	case "kill-mid-stream", "duplicate-lines", "truncate-no-done", "wrong-spec":
		fp.replay(w, r, mode)
	default:
		fp.t.Errorf("unknown fault mode %q", mode)
	}
}

// replay records the real worker's full response, then re-serves it
// with the configured corruption: killed connection mid-body,
// duplicated answer records, a stream with only its done record
// dropped, or an old worker's reply — NDJSON, as if the answers format
// were unknown to it, with every echoed spec replaced by a different
// valid one.
func (fp *faultPeer) replay(w http.ResponseWriter, r *http.Request, mode string) {
	if mode == "wrong-spec" {
		r.Header.Del(dispatch.StreamFormatHeader)
	}
	rec := httptest.NewRecorder()
	fp.inner.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
	w.WriteHeader(rec.Code)
	switch mode {
	case "kill-mid-stream":
		// Deliver roughly half the stream, flush it so the coordinator
		// really receives it, then abort the connection — net/http
		// closes the socket without a terminal chunk, which the client
		// sees as an unexpected EOF.
		w.Write(body[:len(body)/2])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	case "duplicate-lines":
		// Every answer delivered twice; the coordinator must keep
		// exactly one. A record re-encodes to its own bytes.
		br := bufio.NewReader(bytes.NewReader(body))
		var a sweep.Answer
		for {
			done, err := dispatch.ReadAnswerRecord(br, &a)
			if err != nil || done {
				w.Write(dispatch.AppendDoneRecord(nil))
				return
			}
			one := dispatch.AppendAnswerRecord(nil, &a)
			w.Write(append(one, one...))
		}
	case "truncate-no-done":
		// A cancelled attempt's recording may hold no done record.
		w.Write(body[:max(0, len(body)-len(dispatch.AppendDoneRecord(nil)))])
	case "wrong-spec":
		w.Write(rewriteSpecs(body))
	}
}

// wrongSpec is a valid spec no equivalence body contains.
const wrongSpec = `"spec":{"op":"optimize","n":8,"stencil":"13-point","shape":"strip","machine":{"type":"banyan"}}`

// rewriteSpecs replaces every `"spec":{…}` object in body with
// wrongSpec. Specs hold no braces inside strings, so counting braces
// finds each object's end.
func rewriteSpecs(body []byte) []byte {
	key := []byte(`"spec":{`)
	var out []byte
	for {
		i := bytes.Index(body, key)
		if i < 0 {
			return append(out, body...)
		}
		out = append(out, body[:i]...)
		out = append(out, wrongSpec...)
		j, depth := i+len(key), 1
		for ; depth > 0; j++ {
			switch body[j] {
			case '{':
				depth++
			case '}':
				depth--
			}
		}
		body = body[j:]
	}
}
