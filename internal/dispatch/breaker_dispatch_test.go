package dispatch_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"optspeed/internal/admit"
	"optspeed/internal/dispatch"
	"optspeed/internal/service"
	"optspeed/internal/sweep"
)

// TestBreakerEjectsFailingPeer pins the ejection contract: once a
// peer's breaker opens, subsequent scatters skip it entirely — zero
// further shard requests — while the sweep still completes through the
// healthy peer.
func TestBreakerEjectsFailingPeer(t *testing.T) {
	var badHits atomic.Int64
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			badHits.Add(1)
		}
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer bad.Close()
	good := newWorker(t)

	eng := sweep.New(sweep.Options{})
	d := dispatch.New(dispatch.Options{
		Engine: eng, Peers: []string{bad.URL, good}, ShardSize: 4,
		// A cooldown far longer than the test: once open, stays open.
		Breaker: admit.BreakerConfig{Threshold: 2, BaseCooldown: time.Hour, Jitter: -1},
	})

	req := dispatch.Request{Space: testSpace(16, 24, 32, 48)}
	if _, err := d.Run(context.Background(), req); err != nil {
		t.Fatalf("Run: %v", err)
	}
	ejectedAt := badHits.Load()
	if ejectedAt == 0 {
		t.Fatal("failing peer was never attempted — the scatter tested nothing")
	}
	for i := 0; i < 3; i++ {
		if _, err := d.Run(context.Background(), req); err != nil {
			t.Fatalf("Run %d after ejection: %v", i, err)
		}
	}
	if got := badHits.Load(); got != ejectedAt {
		t.Fatalf("ejected peer still receives shards: %d attempts grew to %d", ejectedAt, got)
	}
	st := d.ClusterStatus(context.Background())
	for _, ps := range st.Peers {
		if ps.URL != bad.URL {
			continue
		}
		if ps.Breaker != string(admit.BreakerOpen) {
			t.Fatalf("failing peer breaker state %q, want open", ps.Breaker)
		}
		if ps.BreakerRetryInMs <= 0 {
			t.Fatalf("open breaker reports no retry horizon: %+v", ps)
		}
	}
}

// TestBreakerHalfOpenReadmitsRecoveredPeer drives a peer through the
// full open → half-open → closed cycle with a tiny cooldown: after the
// peer recovers, the next scatter's probe succeeds and the peer serves
// shards again with no further local fallbacks.
func TestBreakerHalfOpenReadmitsRecoveredPeer(t *testing.T) {
	worker := service.New(service.Config{Engine: sweep.New(sweep.Options{})})
	defer worker.Close()
	var shardReqs atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" && shardReqs.Add(1) <= 2 {
			http.Error(w, "warming up", http.StatusInternalServerError)
			return
		}
		worker.Handler().ServeHTTP(w, r)
	}))
	defer flaky.Close()

	eng := sweep.New(sweep.Options{})
	d := dispatch.New(dispatch.Options{
		Engine: eng, Peers: []string{flaky.URL}, ShardSize: 4,
		// MaxInFlight 1 serializes the shards, so the half-open probe's
		// verdict lands before the next shard asks the breaker.
		MaxInFlight: 1,
		Breaker:     admit.BreakerConfig{Threshold: 2, BaseCooldown: 10 * time.Millisecond, Jitter: -1},
	})

	// Both shards fail their one peer attempt and fall back locally;
	// the second failure opens the breaker.
	req := dispatch.Request{Space: testSpace(16, 24)}
	if _, err := d.Run(context.Background(), req); err != nil {
		t.Fatalf("Run while flaky: %v", err)
	}
	if s := d.Stats(); s.ShardsFallback != 2 {
		t.Fatalf("stats after flaky run %+v, want 2 fallbacks", s)
	}

	time.Sleep(25 * time.Millisecond) // let the cooldown elapse
	if _, err := d.Run(context.Background(), req); err != nil {
		t.Fatalf("Run after recovery: %v", err)
	}
	if s := d.Stats(); s.ShardsFallback != 2 {
		t.Fatalf("recovered peer still falling back: %+v", s)
	}
	st := d.ClusterStatus(context.Background())
	if got := st.Peers[0].Breaker; got != string(admit.BreakerClosed) {
		t.Fatalf("breaker state %q after recovery, want closed", got)
	}
}

// TestShardRequestsCarryDeadline pins deadline propagation on the
// dispatch wire: every shard request carries an X-Request-Deadline
// header with a parseable future timestamp, so peers can stop work the
// coordinator would discard.
func TestShardRequestsCarryDeadline(t *testing.T) {
	worker := service.New(service.Config{Engine: sweep.New(sweep.Options{})})
	defer worker.Close()
	var header atomic.Value
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := r.Header.Get("X-Request-Deadline"); h != "" {
			header.Store(h)
		}
		worker.Handler().ServeHTTP(w, r)
	}))
	defer peer.Close()

	eng := sweep.New(sweep.Options{})
	d := dispatch.New(dispatch.Options{Engine: eng, Peers: []string{peer.URL}, ShardSize: 4})
	if _, err := d.Run(context.Background(), dispatch.Request{Space: testSpace(16, 24)}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	h, _ := header.Load().(string)
	if h == "" {
		t.Fatal("shard requests carried no X-Request-Deadline header")
	}
	dl, err := time.Parse(time.RFC3339Nano, h)
	if err != nil {
		t.Fatalf("deadline header %q does not parse: %v", h, err)
	}
	if !dl.After(time.Now().Add(-time.Second)) {
		t.Fatalf("deadline header %q is in the past", h)
	}
}

// TestExpiredDeadlineStopsRetriesAndSettles runs scatters against
// stalling peers under short deadlines: the dead context must stop the
// retry rotation without poisoning the breakers (an aborted attempt is
// not a peer failure), and every goroutine the scatter spawned must
// settle — no leaked shard runners, gatherers, or stalled transports.
func TestExpiredDeadlineStopsRetriesAndSettles(t *testing.T) {
	peers := []string{newFaultPeer(t, "stall", -1), newFaultPeer(t, "stall", -1)}
	eng := sweep.New(sweep.Options{})
	tr := &http.Transport{}
	d := dispatch.New(dispatch.Options{
		Engine:     eng,
		Peers:      peers,
		ShardSize:  4,
		HTTPClient: &http.Client{Transport: tr},
	})

	base := runtime.NumGoroutine()
	req := dispatch.Request{Space: testSpace(16, 24, 32, 48)}
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		_, err := d.Run(ctx, req)
		cancel()
		if err == nil {
			t.Fatal("stalled peers cannot have completed the sweep")
		}
	}
	// An expired deadline says nothing about peer health: the breakers
	// must still be closed, not opened by aborted attempts.
	st := d.ClusterStatus(context.Background())
	for _, ps := range st.Peers {
		if ps.Breaker != string(admit.BreakerClosed) {
			t.Fatalf("deadline expiry opened peer %s breaker (%s)", ps.URL, ps.Breaker)
		}
	}
	// Idle keep-alive connections to the stall peers are not scatter
	// residue; close them so only dispatch goroutines are counted.
	tr.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d at baseline, %d now", base, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
