package chaos

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"optspeed/internal/telemetry"
)

func TestParseSpec(t *testing.T) {
	t.Run("bare seed selects the default drill", func(t *testing.T) {
		cfg, on, err := ParseSpec("42")
		if err != nil || !on {
			t.Fatalf("ParseSpec(42) = on=%v err=%v", on, err)
		}
		want := DefaultDrill
		want.Seed = 42
		if cfg != want {
			t.Fatalf("config = %+v, want %+v", cfg, want)
		}
	})
	t.Run("explicit fields leave unset rates zero", func(t *testing.T) {
		cfg, on, err := ParseSpec("seed=7,drop=0.1,latency=0.2:50ms")
		if err != nil || !on {
			t.Fatalf("on=%v err=%v", on, err)
		}
		want := Config{Seed: 7, Drop: 0.1, Latency: 0.2, LatencyAmount: 50 * time.Millisecond}
		if cfg != want {
			t.Fatalf("config = %+v, want %+v", cfg, want)
		}
	})
	t.Run("latency rate without duration takes the default amount", func(t *testing.T) {
		cfg, _, err := ParseSpec("seed=7,latency=0.5")
		if err != nil {
			t.Fatal(err)
		}
		if cfg.LatencyAmount != DefaultDrill.LatencyAmount {
			t.Fatalf("latency amount = %v, want default %v", cfg.LatencyAmount, DefaultDrill.LatencyAmount)
		}
	})
	t.Run("off and empty are not errors", func(t *testing.T) {
		for _, spec := range []string{"", "off", "  "} {
			if _, on, err := ParseSpec(spec); on || err != nil {
				t.Fatalf("ParseSpec(%q) = on=%v err=%v, want off", spec, on, err)
			}
		}
	})
	t.Run("rejects malformed specs", func(t *testing.T) {
		for _, spec := range []string{
			"drop=0.1",                // no seed
			"seed=1,drop=1.5",         // rate out of range
			"seed=1,bogus=0.1",        // unknown field
			"seed=1,latency=x",        // bad rate
			"seed=x",                  // bad seed
			"seed=1,latency=0.1:nope", // bad duration
		} {
			if _, _, err := ParseSpec(spec); err == nil {
				t.Errorf("ParseSpec(%q) accepted", spec)
			}
		}
	})
}

// TestScheduleDeterminism pins the replay contract: the decisions a
// live site draws are a pure function of (seed, site, seq) — equal to
// Preview, equal across independently built planes, and insensitive to
// traffic on other sites.
func TestScheduleDeterminism(t *testing.T) {
	cfg := DefaultDrill
	cfg.Seed = 99
	p1, p2 := New(cfg), New(cfg)

	const n = 500
	var live []Decision
	for i := 0; i < n; i++ {
		if d := p1.decide("w0 http /v2/sweeps/stream", menuHTTP); d.Fault != FaultNone {
			live = append(live, d)
		}
		// Interleave unrelated traffic: it must not perturb the site
		// under test.
		p1.decide("transport /v2/sweeps/stream", menuTransport)
	}
	var pure []Decision
	for _, d := range p1.Preview(SiteHTTP, "w0 http /v2/sweeps/stream", n) {
		if d.Fault != FaultNone {
			pure = append(pure, d)
		}
	}
	if len(live) == 0 {
		t.Fatal("default drill injected nothing over 500 decisions")
	}
	if !reflect.DeepEqual(live, pure) {
		t.Fatalf("live schedule diverged from Preview: %d vs %d injections", len(live), len(pure))
	}
	if got := p1.ScheduleFor("w0 http /v2/sweeps/stream"); !reflect.DeepEqual(got, live) {
		t.Fatalf("ScheduleFor returned %d entries, want %d", len(got), len(live))
	}
	// A second plane with the same config previews the same schedule.
	if !reflect.DeepEqual(
		p1.Preview(SiteHTTP, "w0 http /v2/sweeps/stream", n),
		p2.Preview(SiteHTTP, "w0 http /v2/sweeps/stream", n),
	) {
		t.Fatal("same-config planes preview different schedules")
	}
	// Different seeds produce different schedules (with overwhelming
	// probability over 500 draws).
	cfg2 := cfg
	cfg2.Seed = 100
	if reflect.DeepEqual(
		New(cfg).Preview(SiteHTTP, "x", n),
		New(cfg2).Preview(SiteHTTP, "x", n),
	) {
		t.Fatal("different seeds previewed identical schedules")
	}
}

func TestPreviewDoesNotAdvanceLiveSequence(t *testing.T) {
	p := New(Config{Seed: 1, Drop: 1})
	p.Preview(SiteHTTP, "s", 10)
	if d := p.decide("s", menuHTTP); d.Seq != 0 {
		t.Fatalf("first live decision at seq %d, want 0", d.Seq)
	}
}

func TestReportCountsInjections(t *testing.T) {
	p := New(Config{Seed: 3, Drop: 1})
	for i := 0; i < 5; i++ {
		p.decide("s", menuHTTP)
	}
	rep := p.Report()
	if rep.Counts.Drop != 5 || rep.Counts.Injected() != 5 || rep.Counts.Decisions != 5 {
		t.Fatalf("counts = %+v", rep.Counts)
	}
	if rep.SiteSeqs["s"] != 5 {
		t.Fatalf("site seq = %d, want 5", rep.SiteSeqs["s"])
	}
	if len(rep.Schedule) != 5 {
		t.Fatalf("schedule holds %d entries, want 5", len(rep.Schedule))
	}
}

// middlewareProbe drives one request through the chaos middleware and
// reports what the client observed.
func middlewareProbe(t *testing.T, cfg Config, path string) (status int, body string, severed bool) {
	t.Helper()
	p := New(cfg)
	inner := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, strings.Repeat("line of payload\n", 400))
	})
	ts := httptest.NewServer(p.Middleware("t", inner))
	defer ts.Close()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		return 0, "", true
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw), err != nil
}

func TestMiddlewareFaults(t *testing.T) {
	const full = 400 * len("line of payload\n")
	t.Run("drop severs the connection", func(t *testing.T) {
		if _, _, severed := middlewareProbe(t, Config{Seed: 1, Drop: 1}, "/x"); !severed {
			t.Fatal("drop delivered a response")
		}
	})
	t.Run("http500 answers 500", func(t *testing.T) {
		status, _, _ := middlewareProbe(t, Config{Seed: 1, HTTP500: 1}, "/x")
		if status != http.StatusInternalServerError {
			t.Fatalf("status = %d", status)
		}
	})
	t.Run("garbage prepends the non-protocol line", func(t *testing.T) {
		_, body, _ := middlewareProbe(t, Config{Seed: 1, Garbage: 1}, "/x")
		if !strings.HasPrefix(body, garbageLine) {
			t.Fatalf("body starts %q", body[:min(len(body), 32)])
		}
	})
	t.Run("truncate delivers a strict prefix then severs", func(t *testing.T) {
		_, body, severed := middlewareProbe(t, Config{Seed: 1, Truncate: 1}, "/x")
		if !severed {
			t.Fatal("truncate closed the stream cleanly")
		}
		if len(body) == 0 || len(body) >= full {
			t.Fatalf("delivered %d of %d bytes", len(body), full)
		}
	})
	t.Run("healthz is exempt", func(t *testing.T) {
		for _, path := range []string{"/healthz", "/metrics"} {
			status, body, severed := middlewareProbe(t, Config{Seed: 1, Drop: 1}, path)
			if severed || status != http.StatusOK || len(body) != full {
				t.Fatalf("exempt path %s disturbed: status=%d severed=%v bytes=%d", path, status, severed, len(body))
			}
		}
	})
}

func TestTransportDrop(t *testing.T) {
	p := New(Config{Seed: 1, Drop: 1})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer ts.Close()
	c := &http.Client{Transport: p.Transport(nil)}
	if _, err := c.Get(ts.URL + "/x"); err == nil {
		t.Fatal("dropped round trip succeeded")
	}
	// Exempt paths pass through even at rate 1.
	resp, err := c.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("exempt path failed: %v", err)
	}
	resp.Body.Close()
}

func TestStoreWriteFault(t *testing.T) {
	hook := New(Config{Seed: 1, StoreWrite: 1}).StoreWriteFault()
	if err := hook(); err == nil {
		t.Fatal("rate-1 storewrite hook returned nil")
	}
	if err := New(Config{Seed: 1}).StoreWriteFault()(); err != nil {
		t.Fatalf("zero-rate hook errored: %v", err)
	}
}

func TestRegisterMetricsExposition(t *testing.T) {
	p := New(Config{Seed: 5, Drop: 1})
	p.decide("s", menuHTTP)
	r := telemetry.NewRegistry()
	p.RegisterMetrics(r)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	page := sb.String()
	if err := telemetry.CheckExposition([]byte(page)); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	if !strings.Contains(page, `optspeed_chaos_injected_total{fault="drop"} 1`) {
		t.Fatalf("drop counter missing:\n%s", page)
	}
	if !strings.Contains(page, "optspeed_chaos_seed 5") {
		t.Fatal("seed gauge missing")
	}
}
