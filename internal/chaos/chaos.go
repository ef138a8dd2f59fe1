// Package chaos is the deterministic fault-injection plane: a
// seed-driven schedule of latency, dropped connections, mid-stream
// truncation, garbage lines, 5xx responses, and store write errors,
// injected behind the interfaces the serving stack already crosses
// (http.Handler for the service surface, http.RoundTripper for
// dispatch's peer calls, and the store's write hook).
//
// Determinism is the point: every injection site draws its decisions
// from an independent pseudo-random stream keyed by (seed, site name,
// per-site sequence number), so the fault schedule for a given seed is
// a pure function of how many decisions each site has drawn — not of
// goroutine interleaving across sites. Re-running a drill with the
// same seed and the same per-site request counts replays the identical
// schedule, which is what lets the differential harness
// (TestDifferential in internal/dispatch, see docs/cluster.md) check
// that the faults it fired are the seed's pure schedule, replay a seed
// with go test -run 'TestDifferential/seed=N', and lets an operator
// replay a failure by its seed.
//
// The plane is dormant unless explicitly constructed (optspeedd
// -chaos, or a test); production builds never pay for it.
package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"optspeed/internal/telemetry"
)

// Fault enumerates the injectable failure modes.
type Fault string

const (
	// FaultNone means the site proceeds untouched.
	FaultNone Fault = "none"
	// FaultLatency delays the site by the configured amount.
	FaultLatency Fault = "latency"
	// FaultDrop severs the connection with no response (service side)
	// or fails the round trip with a transport error (dispatch side).
	FaultDrop Fault = "drop"
	// FaultTruncate cuts the response body short after a
	// deterministically chosen byte budget, then severs the connection
	// — the mid-stream death the dispatch accumulator must absorb.
	FaultTruncate Fault = "truncate"
	// FaultGarbage injects a non-protocol line into the response body.
	FaultGarbage Fault = "garbage"
	// Fault5xx answers with a plain HTTP 500.
	Fault5xx Fault = "http500"
	// FaultStoreWrite fails one durable-store append.
	FaultStoreWrite Fault = "storewrite"
)

// Config is one plane's fault schedule: a seed plus per-fault
// probabilities in [0,1]. The zero Config injects nothing.
type Config struct {
	// Seed keys every injection site's decision stream.
	Seed uint64 `json:"seed"`
	// Latency is the probability of a LatencyAmount stall.
	Latency       float64       `json:"latency,omitempty"`
	LatencyAmount time.Duration `json:"latency_amount,omitempty"`
	// Drop, Truncate, Garbage, HTTP500, and StoreWrite are the
	// per-decision probabilities of the corresponding fault.
	Drop       float64 `json:"drop,omitempty"`
	Truncate   float64 `json:"truncate,omitempty"`
	Garbage    float64 `json:"garbage,omitempty"`
	HTTP500    float64 `json:"http500,omitempty"`
	StoreWrite float64 `json:"storewrite,omitempty"`
}

// DefaultDrill is the rate profile a bare-seed spec selects: every
// fault class active at rates high enough to exercise recovery on a
// short run without drowning it.
var DefaultDrill = Config{
	Latency:       0.10,
	LatencyAmount: 30 * time.Millisecond,
	Drop:          0.05,
	Truncate:      0.05,
	Garbage:       0.05,
	HTTP500:       0.05,
	StoreWrite:    0.05,
}

// ParseSpec parses a -chaos flag value. Accepted forms:
//
//	"42"                         seed 42 with the DefaultDrill rates
//	"seed=42,drop=0.1"           explicit fields, unset rates zero
//	"seed=42,latency=0.2:50ms"   latency takes rate:duration
//
// An empty spec or "off" returns (nil-able) ok=false.
func ParseSpec(spec string) (Config, bool, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		return Config{}, false, nil
	}
	if seed, err := strconv.ParseUint(spec, 10, 64); err == nil {
		cfg := DefaultDrill
		cfg.Seed = seed
		return cfg, true, nil
	}
	var cfg Config
	seen := false
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Config{}, false, fmt.Errorf("chaos: field %q is not key=value", field)
		}
		switch key {
		case "seed":
			seed, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return Config{}, false, fmt.Errorf("chaos: seed %q: %v", val, err)
			}
			cfg.Seed = seed
			seen = true
		case "latency":
			rate, dur, hasDur := strings.Cut(val, ":")
			r, err := parseRate(key, rate)
			if err != nil {
				return Config{}, false, err
			}
			cfg.Latency = r
			cfg.LatencyAmount = DefaultDrill.LatencyAmount
			if hasDur {
				d, err := time.ParseDuration(dur)
				if err != nil {
					return Config{}, false, fmt.Errorf("chaos: latency duration %q: %v", dur, err)
				}
				cfg.LatencyAmount = d
			}
		case "drop", "truncate", "garbage", "http500", "storewrite":
			r, err := parseRate(key, val)
			if err != nil {
				return Config{}, false, err
			}
			switch key {
			case "drop":
				cfg.Drop = r
			case "truncate":
				cfg.Truncate = r
			case "garbage":
				cfg.Garbage = r
			case "http500":
				cfg.HTTP500 = r
			case "storewrite":
				cfg.StoreWrite = r
			}
		default:
			return Config{}, false, fmt.Errorf("chaos: unknown field %q", key)
		}
	}
	if !seen {
		return Config{}, false, fmt.Errorf("chaos: spec %q carries no seed", spec)
	}
	return cfg, true, nil
}

func parseRate(key, val string) (float64, error) {
	r, err := strconv.ParseFloat(val, 64)
	if err != nil || r < 0 || r > 1 {
		return 0, fmt.Errorf("chaos: %s rate %q is not a probability in [0,1]", key, val)
	}
	return r, nil
}

// Decision is one site's verdict for one sequence number.
type Decision struct {
	Site  string        `json:"site"`
	Seq   uint64        `json:"seq"`
	Fault Fault         `json:"fault"`
	Delay time.Duration `json:"delay,omitempty"`
	// Cutoff is the truncation byte budget (FaultTruncate only).
	Cutoff int `json:"cutoff,omitempty"`
}

// maxScheduleEntries bounds the recorded injection log; the full
// schedule is reconstructible from the seed, so the log is a
// convenience sample, not the source of truth.
const maxScheduleEntries = 4096

type siteState struct {
	seq atomic.Uint64
}

// Plane is one live fault schedule. All methods are safe for
// concurrent use.
type Plane struct {
	cfg Config

	mu       sync.Mutex
	sites    map[string]*siteState
	schedule []Decision

	injLatency  atomic.Uint64
	injDrop     atomic.Uint64
	injTruncate atomic.Uint64
	injGarbage  atomic.Uint64
	inj5xx      atomic.Uint64
	injStore    atomic.Uint64
	decisions   atomic.Uint64
}

// New builds a plane over cfg.
func New(cfg Config) *Plane {
	return &Plane{cfg: cfg, sites: make(map[string]*siteState)}
}

// Config returns the plane's schedule parameters.
func (p *Plane) Config() Config { return p.cfg }

// site returns (creating on first use) the named site's state.
func (p *Plane) site(name string) *siteState {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.sites[name]
	if !ok {
		s = &siteState{}
		p.sites[name] = s
	}
	return s
}

// splitmix64 is the finalizer that turns (seed, site, seq) into the
// decision draw. It is a fixed public mixing function, so a schedule
// is stable across builds and platforms.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// fnv64a hashes a site name.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// menus: the fault classes each site kind draws from, in fixed
// threshold order (the order is part of the schedule contract).
var (
	menuHTTP      = []Fault{FaultLatency, FaultDrop, FaultTruncate, FaultGarbage, Fault5xx}
	menuTransport = []Fault{FaultLatency, FaultDrop}
	menuStore     = []Fault{FaultStoreWrite}
)

func (p *Plane) rate(f Fault) float64 {
	switch f {
	case FaultLatency:
		return p.cfg.Latency
	case FaultDrop:
		return p.cfg.Drop
	case FaultTruncate:
		return p.cfg.Truncate
	case FaultGarbage:
		return p.cfg.Garbage
	case Fault5xx:
		return p.cfg.HTTP500
	case FaultStoreWrite:
		return p.cfg.StoreWrite
	}
	return 0
}

// decideAt is the pure schedule function: the decision site makes at
// sequence seq, independent of any plane state.
func (p *Plane) decideAt(site string, seq uint64, menu []Fault) Decision {
	d := Decision{Site: site, Seq: seq, Fault: FaultNone}
	v := splitmix64(p.cfg.Seed ^ fnv64a(site) ^ (seq * 0x9E3779B97F4A7C15))
	u := float64(v>>11) / float64(1<<53)
	acc := 0.0
	for _, f := range menu {
		acc += p.rate(f)
		if u < acc {
			d.Fault = f
			break
		}
	}
	switch d.Fault {
	case FaultLatency:
		d.Delay = p.cfg.LatencyAmount
	case FaultTruncate:
		// The cutoff is drawn from the same stream, so a replay
		// truncates at the same byte.
		d.Cutoff = 128 + int(splitmix64(v)%2048)
	}
	return d
}

// decide advances the named site's sequence and records any injection.
func (p *Plane) decide(site string, menu []Fault) Decision {
	seq := p.site(site).seq.Add(1) - 1
	d := p.decideAt(site, seq, menu)
	p.decisions.Add(1)
	if d.Fault == FaultNone {
		return d
	}
	switch d.Fault {
	case FaultLatency:
		p.injLatency.Add(1)
	case FaultDrop:
		p.injDrop.Add(1)
	case FaultTruncate:
		p.injTruncate.Add(1)
	case FaultGarbage:
		p.injGarbage.Add(1)
	case Fault5xx:
		p.inj5xx.Add(1)
	case FaultStoreWrite:
		p.injStore.Add(1)
	}
	p.mu.Lock()
	if len(p.schedule) < maxScheduleEntries {
		p.schedule = append(p.schedule, d)
	}
	p.mu.Unlock()
	return d
}

// SiteKind selects which fault menu a site draws from: HTTP response
// sites inject the full set, transport sites only latency and drops,
// store sites only write errors.
type SiteKind int

const (
	SiteHTTP SiteKind = iota
	SiteTransport
	SiteStore
)

func (k SiteKind) menu() []Fault {
	switch k {
	case SiteTransport:
		return menuTransport
	case SiteStore:
		return menuStore
	default:
		return menuHTTP
	}
}

// Preview returns the first n decisions the named site will make,
// without advancing its live sequence — the pure schedule a replay
// must reproduce.
func (p *Plane) Preview(kind SiteKind, site string, n int) []Decision {
	out := make([]Decision, n)
	for i := range out {
		out[i] = p.decideAt(site, uint64(i), kind.menu())
	}
	return out
}

// Counts is the plane's injection tally.
type Counts struct {
	Decisions uint64 `json:"decisions"`
	Latency   uint64 `json:"latency"`
	Drop      uint64 `json:"drop"`
	Truncate  uint64 `json:"truncate"`
	Garbage   uint64 `json:"garbage"`
	HTTP500   uint64 `json:"http500"`
	Store     uint64 `json:"storewrite"`
}

// Injected reports the total number of injected faults so far.
func (c Counts) Injected() uint64 {
	return c.Latency + c.Drop + c.Truncate + c.Garbage + c.HTTP500 + c.Store
}

// Counts snapshots the injection tally.
func (p *Plane) Counts() Counts {
	return Counts{
		Decisions: p.decisions.Load(),
		Latency:   p.injLatency.Load(),
		Drop:      p.injDrop.Load(),
		Truncate:  p.injTruncate.Load(),
		Garbage:   p.injGarbage.Load(),
		HTTP500:   p.inj5xx.Load(),
		Store:     p.injStore.Load(),
	}
}

// Report is the plane's replayable drill record: the schedule
// parameters, the per-site decision counts (with which the full
// schedule is reconstructible from the seed), the injection tally, and
// a bounded sample of the injected decisions in the order they fired.
type Report struct {
	Config   Config            `json:"config"`
	Counts   Counts            `json:"counts"`
	SiteSeqs map[string]uint64 `json:"site_seqs"`
	Schedule []Decision        `json:"schedule"`
}

// Report snapshots the plane for the drill artifact.
func (p *Plane) Report() Report {
	p.mu.Lock()
	defer p.mu.Unlock()
	seqs := make(map[string]uint64, len(p.sites))
	names := make([]string, 0, len(p.sites))
	for name := range p.sites {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		seqs[name] = p.sites[name].seq.Load()
	}
	sched := make([]Decision, len(p.schedule))
	copy(sched, p.schedule)
	return Report{Config: p.cfg, Counts: p.Counts(), SiteSeqs: seqs, Schedule: sched}
}

// ScheduleFor returns the recorded injections at one site, in firing
// order.
func (p *Plane) ScheduleFor(site string) []Decision {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []Decision
	for _, d := range p.schedule {
		if d.Site == site {
			out = append(out, d)
		}
	}
	return out
}

// RegisterMetrics exports the plane's injection counters. The label
// space is the fixed fault enum.
func (p *Plane) RegisterMetrics(r *telemetry.Registry) {
	const help = "Faults injected by the chaos plane, by class."
	read := func(c *atomic.Uint64) func() float64 {
		return func() float64 { return float64(c.Load()) }
	}
	r.NewCounterFunc("optspeed_chaos_injected_total", help, read(&p.injLatency), telemetry.L("fault", string(FaultLatency)))
	r.NewCounterFunc("optspeed_chaos_injected_total", help, read(&p.injDrop), telemetry.L("fault", string(FaultDrop)))
	r.NewCounterFunc("optspeed_chaos_injected_total", help, read(&p.injTruncate), telemetry.L("fault", string(FaultTruncate)))
	r.NewCounterFunc("optspeed_chaos_injected_total", help, read(&p.injGarbage), telemetry.L("fault", string(FaultGarbage)))
	r.NewCounterFunc("optspeed_chaos_injected_total", help, read(&p.inj5xx), telemetry.L("fault", string(Fault5xx)))
	r.NewCounterFunc("optspeed_chaos_injected_total", help, read(&p.injStore), telemetry.L("fault", string(FaultStoreWrite)))
	r.NewCounterFunc("optspeed_chaos_decisions_total",
		"Injection-site decisions drawn from the chaos schedule.",
		func() float64 { return float64(p.decisions.Load()) })
	r.NewGaugeFunc("optspeed_chaos_seed", "Active chaos schedule seed.",
		func() float64 { return float64(p.cfg.Seed) })
}
