package dispatch_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// The equivalence corpus: each body exceeds the test shard size (8), so
// a coordinator genuinely scatters it, and each exercises a different
// wire shape — optimize allocations (plus per-spec errors from a bogus
// stencil), the batched speedup fast path, and scaled points.
var equivalenceBodies = []struct {
	name string
	body string
}{
	{"optimize", `{"space":{"ns":[16,24,32,48],"stencils":["5-point","9-point","bogus"],` +
		`"shapes":["strip","square"],"machines":[{"type":"sync-bus"},{"type":"hypercube"}]}}`},
	{"speedup", `{"space":{"op":"speedup","ns":[32,64],"stencils":["5-point"],` +
		`"shapes":["strip","square"],"machines":[{"type":"mesh"},{"type":"banyan"}],` +
		`"procs":[1,2,4,8,16,32]}}`},
	{"scaled", `{"space":{"op":"scaled","ns":[16,24,32,48,64,96,128,192,256],"stencils":["9-point"],` +
		`"shapes":["square"],"machines":[{"type":"hypercube"},{"type":"full-async-bus"}],` +
		`"points_per_proc":64}}`},
}

// checkGolden compares got against the named golden file (writing it
// under -update).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: response diverges from golden (%d vs %d bytes)", name, len(got), len(want))
	}
}

// TestDistributedEquivalence is the headline guarantee: a sweep
// scattered across in-process peers produces byte-identical /v1/sweep
// output to a fresh single-node server, and both match the committed
// golden bytes.
func TestDistributedEquivalence(t *testing.T) {
	peers := []string{newWorker(t), newWorker(t), newWorker(t)}
	coord, disp := newCoordinator(t, peers, 8)
	single := newWorker(t)

	for _, tc := range equivalenceBodies {
		t.Run(tc.name, func(t *testing.T) {
			st1, want := postSweep(t, single, tc.body)
			st2, got := postSweep(t, coord, tc.body)
			if st1 != 200 || st2 != 200 {
				t.Fatalf("status: single=%d coordinator=%d", st1, st2)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: distributed response diverges from single-node (%d vs %d bytes)\nsingle:      %.200s\ncoordinator: %.200s",
					tc.name, len(want), len(got), want, got)
			}
			checkGolden(t, "equivalence_"+tc.name, got)
		})
	}
	if s := disp.Stats(); s.ShardsPlanned == 0 {
		t.Fatalf("coordinator never scattered: stats %+v", s)
	} else if s.ShardsFallback != 0 || s.ShardsRetried != 0 {
		t.Fatalf("healthy cluster should not retry or fall back: stats %+v", s)
	}
}

// TestDistributedEquivalenceUnderFaults re-runs the same corpus against
// coordinators whose first peer misbehaves — killed mid-stream, plain
// 5xx, garbage NDJSON, a stream truncated before its done line, or
// every echoed spec rewritten to a different one — and requires the
// same golden bytes: shard reassignment must be invisible in the
// output, and each result's spec comes from the coordinator's plan.
func TestDistributedEquivalenceUnderFaults(t *testing.T) {
	for _, mode := range []string{"kill-mid-stream", "http-500", "garbage", "truncate-no-done", "wrong-spec"} {
		t.Run(mode, func(t *testing.T) {
			peers := []string{newFaultPeer(t, mode, -1), newWorker(t), newWorker(t)}
			coord, disp := newCoordinator(t, peers, 8)
			for _, tc := range equivalenceBodies {
				status, got := postSweep(t, coord, tc.body)
				if status != 200 {
					t.Fatalf("%s: status %d", tc.name, status)
				}
				checkGolden(t, "equivalence_"+tc.name, got)
			}
			s := disp.Stats()
			switch mode {
			case "truncate-no-done", "wrong-spec":
				// The truncated stream delivered every result before
				// dropping its done line; the accumulator is already
				// complete, so no reassignment happens — the attempt is
				// recorded against the peer's ledger but nothing re-runs.
				// A wrong echo is no fault at all: the spec is never read.
				if s.ShardsRetried != 0 {
					t.Fatalf("complete deliveries should not re-run: stats %+v", s)
				}
			default:
				if s.ShardsRetried == 0 {
					t.Fatalf("fault peer never tripped a retry: stats %+v", s)
				}
			}
			if s.ShardsFallback != 0 {
				t.Fatalf("healthy peers remained; local fallback should not fire: stats %+v", s)
			}
		})
	}
}

// TestAllPeersDownFallsBackLocally pins the last-resort path: with
// every peer failing, the coordinator's own engine evaluates the
// shards and the output still matches the golden bytes.
func TestAllPeersDownFallsBackLocally(t *testing.T) {
	peers := []string{newFaultPeer(t, "http-500", -1), newFaultPeer(t, "garbage", -1)}
	coord, disp := newCoordinator(t, peers, 8)
	for _, tc := range equivalenceBodies {
		status, got := postSweep(t, coord, tc.body)
		if status != 200 {
			t.Fatalf("%s: status %d", tc.name, status)
		}
		checkGolden(t, "equivalence_"+tc.name, got)
	}
	if s := disp.Stats(); s.ShardsFallback == 0 {
		t.Fatalf("expected local fallbacks: stats %+v", s)
	}
}

// TestDuplicateDeliveryDedupes drives a peer that sends every result
// line twice: the merged output must still match the single-node
// bytes, with no doubled results or inflated stats.
func TestDuplicateDeliveryDedupes(t *testing.T) {
	peers := []string{newFaultPeer(t, "duplicate-lines", -1), newFaultPeer(t, "duplicate-lines", -1)}
	coord, disp := newCoordinator(t, peers, 8)
	for _, tc := range equivalenceBodies {
		status, got := postSweep(t, coord, tc.body)
		if status != 200 {
			t.Fatalf("%s: status %d", tc.name, status)
		}
		checkGolden(t, "equivalence_"+tc.name, got)
	}
	if s := disp.Stats(); s.ShardsRetried != 0 || s.ShardsFallback != 0 {
		t.Fatalf("duplicates must be dropped silently, not retried: stats %+v", s)
	}
}

// TestGoldenFilesCommitted guards against an -update run having been
// forgotten: the corpus and the testdata directory must agree.
func TestGoldenFilesCommitted(t *testing.T) {
	for _, tc := range equivalenceBodies {
		path := filepath.Join("testdata", fmt.Sprintf("equivalence_%s.golden", tc.name))
		if _, err := os.Stat(path); err != nil {
			t.Errorf("missing golden: %v", err)
		}
	}
}
