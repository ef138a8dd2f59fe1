package dispatch_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"optspeed/internal/chaos"
	"optspeed/internal/core"
	"optspeed/internal/dispatch"
	"optspeed/internal/service"
	"optspeed/internal/sweep"
	"optspeed/internal/telemetry"
)

// newChaosWorker starts a worker whose HTTP surface draws faults from
// the plane under the given site prefix.
func newChaosWorker(t *testing.T, plane *chaos.Plane, prefix string) string {
	t.Helper()
	srv := service.New(service.Config{Engine: sweep.New(sweep.Options{})})
	ts := httptest.NewServer(plane.Middleware(prefix, srv.Handler()))
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts.URL
}

// chaosSpace is a sweep space big enough to scatter into many shards.
var chaosSpace = &sweep.Space{
	Ns:       []int{64, 96, 128, 160, 192, 224, 256, 288, 320, 352, 384, 416},
	Stencils: []string{"5-point", "9-point"},
	Shapes:   []string{"strip", "square"},
	Machines: []core.MachineSpec{{Type: "sync-bus"}, {Type: "mesh"}, {Type: "hypercube"}},
}

// TestHedgedDispatchIndexIntegrity is the property test for the
// delivery invariant: across flaky peers, forced hedging, retries, and
// mid-flight roster churn, a dispatch run yields every index exactly
// once — no duplicates from hedge winners racing losers, no holes from
// reclaimed attempts.
func TestHedgedDispatchIndexIntegrity(t *testing.T) {
	specs := chaosSpace.Expand()
	for round := 0; round < 4; round++ {
		plane := chaos.New(chaos.Config{
			Seed:    uint64(1000 + round),
			Latency: 0.25, LatencyAmount: 20 * time.Millisecond,
			Drop: 0.1, Truncate: 0.1, Garbage: 0.1, HTTP500: 0.1,
		})
		peers := []string{
			newChaosWorker(t, plane, "a"),
			newChaosWorker(t, plane, "b"),
			newChaosWorker(t, plane, "c"),
		}
		d := dispatch.New(dispatch.Options{
			Engine:    sweep.New(sweep.Options{}),
			Peers:     peers,
			ShardSize: 16,
			// An aggressive budget so the injected latency reliably
			// trips hedges.
			Hedge: dispatch.HedgeConfig{Multiplier: 1.5, Min: 2 * time.Millisecond},
		})
		// Roster churn mid-run: drop a peer, then bring it back.
		done := make(chan struct{})
		go func() {
			defer close(done)
			time.Sleep(10 * time.Millisecond)
			if err := d.RemovePeer(peers[0]); err != nil {
				return
			}
			time.Sleep(10 * time.Millisecond)
			d.AddPeer(peers[0])
		}()
		results, err := d.Run(context.Background(), dispatch.Request{Specs: specs})
		<-done
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(results) != len(specs) {
			t.Fatalf("round %d: %d results for %d specs", round, len(results), len(specs))
		}
		seen := make([]bool, len(specs))
		for _, r := range results {
			if r.Index < 0 || r.Index >= len(specs) {
				t.Fatalf("round %d: index %d out of range", round, r.Index)
			}
			if seen[r.Index] {
				t.Fatalf("round %d: index %d delivered twice", round, r.Index)
			}
			seen[r.Index] = true
			if r.Spec != specs[r.Index] {
				t.Fatalf("round %d: index %d carries spec %+v, want %+v",
					round, r.Index, r.Spec, specs[r.Index])
			}
		}
	}
}

// TestHedgingCutsSlowPeerTail measures the hedging claim: with one of
// three workers answering every request 120ms late, a hedging
// coordinator must launch hedges and finish sweeps with a lower p99
// than one with hedging off. Shards land on the slow worker either
// way; only hedging can cut the wait short.
func TestHedgingCutsSlowPeerTail(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped under -short")
	}
	slow := chaos.New(chaos.Config{Seed: 1, Latency: 1, LatencyAmount: 120 * time.Millisecond})
	peers := []string{newChaosWorker(t, slow, "slow"), newWorker(t), newWorker(t)}
	specs := chaosSpace.Expand()
	measure := func(hedge dispatch.HedgeConfig) (p99 time.Duration, hedges int) {
		d := dispatch.New(dispatch.Options{
			Engine:    sweep.New(sweep.Options{}),
			Peers:     peers,
			ShardSize: 16,
			Hedge:     hedge,
		})
		// The first runs settle connections and seed the hedge budget's
		// latency EWMA; only the rest are timed.
		const warmup, timed = 6, 20
		lat := make([]time.Duration, 0, timed)
		for i := 0; i < warmup+timed; i++ {
			start := time.Now()
			if _, err := d.Run(context.Background(), dispatch.Request{Specs: specs}); err != nil {
				t.Fatal(err)
			}
			if i >= warmup {
				lat = append(lat, time.Since(start))
			}
		}
		slices.Sort(lat)
		// Nearest-rank p99.
		return lat[(len(lat)*99+99)/100-1], d.Stats().HedgesLaunched
	}
	offP99, _ := measure(dispatch.HedgeConfig{Disable: true})
	onP99, hedges := measure(dispatch.HedgeConfig{})
	t.Logf("sweep p99 with a +120ms peer: %v hedged (%d hedges) vs %v unhedged", onP99, hedges, offP99)
	if hedges == 0 {
		t.Fatal("hedging coordinator launched no hedges against the slow peer")
	}
	if onP99 >= offP99 {
		t.Fatalf("hedged p99 %v not below unhedged p99 %v", onP99, offP99)
	}
}

// TestPeerRemovalMidSweepNoGoroutineLeak pins attempt reclamation: a
// peer evicted while serving shards has its outstanding attempts
// cancelled, and nothing keeps goroutines pinned afterwards. Run under
// -race in CI's distributed job.
func TestPeerRemovalMidSweepNoGoroutineLeak(t *testing.T) {
	specs := chaosSpace.Expand()
	// Every shard request to every peer stalls 40ms, so removal lands
	// while attempts are genuinely in flight.
	plane := chaos.New(chaos.Config{Seed: 5, Latency: 1, LatencyAmount: 40 * time.Millisecond})
	peers := []string{
		newChaosWorker(t, plane, "a"),
		newChaosWorker(t, plane, "b"),
		newChaosWorker(t, plane, "c"),
	}
	tr := &http.Transport{}
	d := dispatch.New(dispatch.Options{
		Engine:     sweep.New(sweep.Options{}),
		Peers:      peers,
		ShardSize:  16,
		HTTPClient: &http.Client{Transport: tr},
	})
	// Warm the topology (connection pools, engine caches on the peers)
	// before taking the baseline, so only the removal run's residue is
	// measured.
	if _, err := d.Run(context.Background(), dispatch.Request{Specs: specs}); err != nil {
		t.Fatal(err)
	}
	tr.CloseIdleConnections()
	before := settledGoroutines(t)

	errc := make(chan error, 1)
	go func() {
		_, err := d.Run(context.Background(), dispatch.Request{Specs: specs})
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := d.RemovePeer(peers[1]); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("run: %v", err)
	}
	if d.Stats().AttemptsReclaimed == 0 {
		t.Fatal("removal mid-sweep reclaimed no attempts")
	}
	tr.CloseIdleConnections()
	after := settledGoroutines(t)
	if after > before+3 {
		t.Fatalf("goroutines grew %d -> %d after reclaim", before, after)
	}
}

func settledGoroutines(t *testing.T) int {
	t.Helper()
	prev := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(10 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == prev {
			return n
		}
		prev = n
	}
	return prev
}

// TestDispatchMetricsExposition checks the new membership and hedging
// series land on a valid exposition page, including per-peer series
// for runtime-added members.
func TestDispatchMetricsExposition(t *testing.T) {
	w0, w1 := newWorker(t), newWorker(t)
	d := dispatch.New(dispatch.Options{
		Engine: sweep.New(sweep.Options{}),
		Peers:  []string{w0},
	})
	r := telemetry.NewRegistry()
	d.RegisterMetrics(r)
	if err := d.AddPeer(w1); err != nil {
		t.Fatal(err)
	}
	specs := chaosSpace.Expand()
	if _, err := d.Run(context.Background(), dispatch.Request{Specs: specs}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	page := sb.String()
	if err := telemetry.CheckExposition([]byte(page)); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	for _, want := range []string{
		"optspeed_dispatch_hedges_launched_total",
		"optspeed_dispatch_hedges_won_total",
		"optspeed_dispatch_attempts_reclaimed_total",
		`optspeed_dispatch_membership_events_total{event="added"} 1`,
		`optspeed_dispatch_peers{state="healthy"} 2`,
		`optspeed_dispatch_peer_shards_total{outcome="ok",peer="` + w1 + `"}`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
