package dispatch_test

import (
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"optspeed/internal/chaos"
	"optspeed/internal/service"
)

// The tests below are fixed cases of the differential harness: each
// pins one guarantee on a hand-picked topology, through the harness's
// own golden checks and steps, so that guarantee fails under its own
// name as well as inside a seed.

// TestDistributedEquivalence is the headline guarantee: a sweep
// scattered across healthy peers answers with the same golden bytes
// as a cold single node, with no retry and no local fallback.
func TestDistributedEquivalence(t *testing.T) {
	goldenSingle(t)
	goldenCoordinator(t, "", true)
}

// TestDistributedEquivalenceUnderFaults requires the golden bytes from
// coordinators with one peer killed mid-stream, serving 5xx or garbage,
// truncating before its done record, or answering NDJSON with wrong
// specs like a worker that predates answer records: shard reassignment
// must be invisible in the output.
func TestDistributedEquivalenceUnderFaults(t *testing.T) {
	for _, mode := range faultModes {
		if mode != "duplicate-lines" { // TestDuplicateDeliveryDedupes
			t.Run(mode, func(t *testing.T) { goldenCoordinator(t, mode, false) })
		}
	}
}

// TestAllPeersDownFallsBackLocally pins the last resort: with every
// peer failing, the coordinator's own engine evaluates the shards and
// the output is still the golden bytes.
func TestAllPeersDownFallsBackLocally(t *testing.T) {
	goldenCoordinator(t, "all-down", false)
}

// TestDuplicateDeliveryDedupes drives a peer that sends every answer
// record twice: the output is still the golden bytes, and duplicates are
// dropped, neither retried nor fallen back from.
func TestDuplicateDeliveryDedupes(t *testing.T) {
	goldenCoordinator(t, "duplicate-lines", false)
}

// TestGoldenFilesCommitted requires a golden file for every corpus body.
func TestGoldenFilesCommitted(t *testing.T) {
	for _, tc := range equivalenceBodies {
		if _, err := os.Stat(filepath.Join("testdata", "equivalence_"+tc.name+".golden")); err != nil {
			t.Errorf("missing golden: %v", err)
		}
	}
}

// TestChaosFaultEquivalence sends the corpus through workers that serve
// 5xx, dropped connections, truncated streams, garbage lines and
// latency from the chaos plane, and a peer transport that drops and
// delays round trips: the responses must still be the golden bytes, and
// the faults that fired must replay from the seed alone (the harness
// checks the schedule when the test ends).
func TestChaosFaultEquivalence(t *testing.T) {
	h := newHarness(t, chaos.Config{Seed: 77, Latency: 0.15, LatencyAmount: 5 * time.Millisecond,
		Drop: 0.1, Truncate: 0.1, Garbage: 0.1, HTTP500: 0.1}, 3, map[string]int{})
	for id := range h.peers {
		h.run(step{kind: "fault-swap", peer: id, mode: "chaos"})
	}
	for _, tc := range equivalenceBodies {
		got := h.do(http.StatusOK, "POST", "/v1/sweep", tc.body)
		checkGolden(t, tc.name, got)
		h.agree(tc.name, tc.body, decode[service.SweepResponse](t, got).Results, true, true)
	}
	if h.plane.Counts().Injected() == 0 {
		t.Fatal("plane injected nothing; the equivalence was not exercised")
	}
}

// TestDistributedJobProgress runs a job over healthy peers: it must
// succeed with every result, its shard count must be the dispatcher's
// plan, and every shard must be done.
func TestDistributedJobProgress(t *testing.T) {
	h := newHarness(t, chaos.Config{}, 2, map[string]int{})
	h.run(step{kind: "job", n: 10, body: equivalenceBodies[0].body})
	if p, planned := h.live.Load().Jobs().List()[0].Progress, h.disp.Stats().ShardsPlanned; p.Shards == 0 || p.Shards != planned {
		t.Fatalf("progress %+v: want the %d shards the dispatcher planned", p, planned)
	}
}

// TestDuplicateDeliveryDoesNotInflateProgress runs a job over peers
// that deliver every result twice: completed must equal total, and the
// stored pages must hold every index exactly once, in order.
func TestDuplicateDeliveryDoesNotInflateProgress(t *testing.T) {
	h := newHarness(t, chaos.Config{}, 2, map[string]int{})
	for id := range h.peers {
		h.run(step{kind: "fault-swap", peer: id, mode: "duplicate-lines"})
	}
	h.run(step{kind: "job", n: 7, body: equivalenceBodies[1].body})
}

// TestCoordinatorStreamIsOrdered reads /v2/sweeps/stream from a
// coordinator: unlike a single node's stream, which arrives in
// completion order, the gathered stream must arrive in index order,
// complete, and end in a done line that counts every result.
func TestCoordinatorStreamIsOrdered(t *testing.T) {
	h := newHarness(t, chaos.Config{}, 2, map[string]int{})
	h.run(step{kind: "stream", body: equivalenceBodies[0].body})
}
