package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"optspeed/internal/dispatch"
	"optspeed/internal/jobs"
	"optspeed/internal/service"
	"optspeed/internal/store"
	"optspeed/internal/sweep"
	"optspeed/internal/telemetry"
)

// rig is the fresh state one rung of one round runs on: a server (a
// coordinator with its peers for cluster-cold), optionally listening on
// loopback and optionally journaling to a WAL in its own directory.
type rig struct {
	srv    *serverHandle
	peers  []*serverHandle
	disp   *dispatch.Dispatcher
	wal    *store.Store
	dir    string
	peerRT *peerTransport
}

// serverHandle is one in-process optspeedd.
type serverHandle struct {
	srv  *service.Server
	eng  *sweep.Engine
	hs   *http.Server
	done chan struct{}
	base string
}

// serverConfig is the part of service.Config a rig varies.
type serverConfig struct {
	eng     *sweep.Engine
	disp    *dispatch.Dispatcher
	wal     *store.Store
	tracing bool
}

// startServer builds one server and, when listen is set, serves it on a
// loopback port.
func startServer(c serverConfig, listenOn bool) (*serverHandle, error) {
	if c.eng == nil {
		c.eng = sweep.New(sweep.Options{})
	}
	srv := service.New(service.Config{
		Engine:         c.eng,
		Dispatcher:     c.disp,
		Persistence:    c.wal,
		DisableTracing: !c.tracing,
	})
	s := &serverHandle{srv: srv, eng: c.eng}
	if listenOn {
		hs, done, base, err := listen(srv.Handler())
		if err != nil {
			srv.Close()
			return nil, err
		}
		s.hs, s.done, s.base = hs, done, base
	}
	return s, nil
}

type rigOptions struct {
	listen  bool
	tracing bool
	// peers > 0 puts the server in front of that many workers; a
	// traced rig times the coordinator's calls to them.
	peers int
	// dir, when set, puts the server on a WAL store in that (empty)
	// directory.
	dir string
}

// newRig builds the topology. Everything it starts is stopped by close.
func newRig(o rigOptions) (*rig, error) {
	r := &rig{}
	var peerURLs []string
	for i := 0; i < o.peers; i++ {
		p, err := startServer(serverConfig{tracing: o.tracing}, true)
		if err != nil {
			r.close()
			return nil, err
		}
		r.peers = append(r.peers, p)
		peerURLs = append(peerURLs, p.base)
	}
	cfg := serverConfig{tracing: o.tracing}
	cfg.eng = sweep.New(sweep.Options{})
	if o.peers > 0 {
		dopts := dispatch.Options{Engine: cfg.eng, Peers: peerURLs, ShardSize: clusterShards}
		if o.tracing {
			r.peerRT = newPeerTransport()
			dopts.HTTPClient = &http.Client{Transport: r.peerRT}
		}
		r.disp = dispatch.New(dopts)
		cfg.disp = r.disp
	}
	if o.dir != "" {
		r.dir = o.dir
		wal, recovered, err := store.Open(store.Options{Dir: o.dir, Fsync: store.FsyncInterval})
		if err != nil {
			r.close()
			return nil, fmt.Errorf("open store: %w", err)
		}
		if len(recovered) != 0 {
			wal.Close()
			r.close()
			return nil, fmt.Errorf("open store: fresh dir %s recovered %d jobs", o.dir, len(recovered))
		}
		r.wal = wal
		cfg.wal = wal
	}
	s, err := startServer(cfg, o.listen)
	if err != nil {
		r.close()
		return nil, err
	}
	r.srv = s
	return r, nil
}

// engines lists every engine in the topology (coordinator first).
func (r *rig) engines() []*sweep.Engine {
	out := []*sweep.Engine{r.srv.eng}
	for _, p := range r.peers {
		out = append(out, p.eng)
	}
	return out
}

// close stops every server and the store; it leaves the data directory
// in place for a recovery check (the caller removes it).
func (r *rig) close() {
	if r.srv != nil {
		r.srv.close()
	}
	for _, p := range r.peers {
		p.close()
	}
	if r.wal != nil {
		r.wal.Close()
	}
	if r.peerRT != nil {
		r.peerRT.base.CloseIdleConnections()
	}
}

func (s *serverHandle) close() {
	if s.hs != nil {
		s.hs.Close()
		<-s.done
	}
	s.srv.Close()
}

// dataDir returns a new empty directory under root for one store.
func dataDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "wal-")
}

// caller sends one request to a rung's entry point and returns the
// status, the body, and the trace id the server echoed.
type caller interface {
	call(method, path string, body []byte) (int, []byte, string, error)
}

// httpCaller is rung L0: a real HTTP client over the loopback socket.
type httpCaller struct {
	c    *http.Client
	base string
}

func newHTTPCaller(base string, clients int) *httpCaller {
	return &httpCaller{
		c:    &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients + 1}},
		base: base,
	}
}

func (c *httpCaller) call(method, path string, body []byte) (int, []byte, string, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, "", err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, resp.Header.Get(telemetry.TraceIDHeader), err
}

func (c *httpCaller) close() { c.c.CloseIdleConnections() }

// handlerCaller is rung L1: the server's root handler, no socket.
type handlerCaller struct{ h http.Handler }

func (c handlerCaller) call(method, path string, body []byte) (int, []byte, string, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, "http://perfbench"+path, rd)
	if err != nil {
		return 0, nil, "", err
	}
	req.RemoteAddr = "127.0.0.1:1"
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), rec.Header().Get(telemetry.TraceIDHeader), nil
}

// peerTransport times the coordinator's peer calls from request start
// to the end of the response body, and counts the body bytes.
type peerTransport struct {
	base  *http.Transport
	mu    sync.Mutex
	calls int
	busy  time.Duration
	bytes int64
}

func newPeerTransport() *peerTransport {
	return &peerTransport{base: &http.Transport{MaxIdleConnsPerHost: 64, IdleConnTimeout: 90 * time.Second}}
}

func (t *peerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.record(time.Since(start), 0)
		return nil, err
	}
	resp.Body = &timedBody{rc: resp.Body, start: start, t: t}
	return resp, nil
}

func (t *peerTransport) record(d time.Duration, n int64) {
	t.mu.Lock()
	t.calls++
	t.busy += d
	t.bytes += n
	t.mu.Unlock()
}

func (t *peerTransport) snapshot() (calls int, busy time.Duration, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.calls, t.busy, t.bytes
}

type timedBody struct {
	rc    io.ReadCloser
	start time.Time
	t     *peerTransport
	n     int64
	once  sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.finish()
	return b.rc.Close()
}

func (b *timedBody) finish() {
	b.once.Do(func() { b.t.record(time.Since(b.start), b.n) })
}

// timedPersister wraps the durable store with per-record timing: the
// jobs layer's WAL append cost, seen from the layer above it.
type timedPersister struct {
	inner   *store.Store
	records atomic.Int64
	busyNs  atomic.Int64
}

func (p *timedPersister) timed(f func()) {
	start := time.Now()
	f()
	p.busyNs.Add(int64(time.Since(start)))
	p.records.Add(1)
}

func (p *timedPersister) Submitted(j jobs.PersistedJob) { p.timed(func() { p.inner.Submitted(j) }) }
func (p *timedPersister) Started(id string, at time.Time, total int) {
	p.timed(func() { p.inner.Started(id, at, total) })
}
func (p *timedPersister) Chunk(id string, rs []sweep.Result) {
	p.timed(func() { p.inner.Chunk(id, rs) })
}
func (p *timedPersister) Finished(id string, st jobs.State, reason string, at time.Time) {
	p.timed(func() { p.inner.Finished(id, st, reason, at) })
}
func (p *timedPersister) CancelRequested(id string) {
	p.timed(func() { p.inner.CancelRequested(id) })
}
func (p *timedPersister) Removed(id string) { p.timed(func() { p.inner.Removed(id) }) }

// Snapshot is compaction, not a record append: it is passed through
// untimed.
func (p *timedPersister) Snapshot(dump []jobs.PersistedJob) error { return p.inner.Snapshot(dump) }

// listen serves h on a loopback port.
func listen(h http.Handler) (*http.Server, chan struct{}, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: time.Minute}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return hs, done, "http://" + ln.Addr().String(), nil
}
