package sweep

import (
	"context"
	"strings"
	"sync"
	"testing"

	"optspeed/internal/core"
)

// validSpecFor builds a well-formed spec for the op, exercising the
// fields that op consumes.
func validSpecFor(op Op) Spec {
	s := Spec{Op: op, N: 32, Stencil: "5-point", Shape: "square",
		Machine: core.MachineSpec{Type: "sync-bus"}}
	switch op {
	case OpSpeedup, OpAmdahl, OpGustafson, OpCriticalPath:
		s.Procs = 4
	case OpMinGrid:
		s.N, s.Procs = 0, 4
	case OpIsoeffGrid:
		s.N, s.Procs, s.Target = 0, 4, 0.5
	case OpScaled:
		s.PointsPerProc = 64
	}
	return s
}

// TestOpConsistency enumerates every declared op and holds the layers
// that know the op set to the same set: the op table's lookup, the
// string opKey, resolution (buildKey), evaluation, and request
// validation (Op.Valid). An op added to the table but not to opKey (or
// the reverse) fails here instead of surfacing as a per-result
// "unknown op" error in production.
func TestOpConsistency(t *testing.T) {
	ops := Ops()
	if len(ops) < 9 {
		t.Fatalf("Ops() returned %d ops, expected at least 9", len(ops))
	}
	seen := map[Op]bool{}
	for _, op := range ops {
		if seen[op] {
			t.Fatalf("Ops() lists %q twice", op)
		}
		seen[op] = true
		if !op.Valid() {
			t.Errorf("op %q: Valid() = false", op)
		}
		if d, _ := lookupOp(op); d == nil || d.op != op {
			t.Errorf("op %q: no op table row", op)
		}
		s := validSpecFor(op)
		if _, err := s.opKey("m"); err != nil {
			t.Errorf("op %q: opKey failed: %v", op, err)
		}
		if _, err := s.Key(); err != nil {
			t.Errorf("op %q: string Key failed: %v", op, err)
		}
		r, err := s.resolve()
		if err != nil {
			t.Fatalf("op %q: resolve failed: %v", op, err)
		}
		var out Answer
		evaluate(s, r, &out)
		if out.Err != nil {
			t.Errorf("op %q: evaluate of a valid spec failed: %v", op, out.Err)
		}
	}
	// The zero op is valid (it normalizes to optimize); garbage is not,
	// and the evaluate fallback reports the same normalized op as opKey.
	if !Op("").Valid() {
		t.Error("zero op should be valid")
	}
	if Op("transmogrify").Valid() {
		t.Error("unknown op reported valid")
	}
	bad := validSpecFor(OpSpeedup)
	bad.Op = "transmogrify"
	_, keyErr := bad.opKey("m")
	var out Answer
	evaluate(bad, resolved{}, &out)
	if keyErr == nil || out.Err == nil {
		t.Fatalf("unknown op accepted: keyErr=%v evalErr=%v", keyErr, out.Err)
	}
	if keyErr.Error() != out.Err.Error() {
		t.Errorf("unknown-op messages differ: opKey %q, evaluate %q", keyErr, out.Err)
	}
	if !strings.Contains(keyErr.Error(), "transmogrify") {
		t.Errorf("unknown-op message does not name the op: %q", keyErr)
	}
}

// TestRunSpaceBatchedLawsMatchesIndividual checks the batched fast path
// of every op the table marks batched against per-spec evaluation,
// including out-of-range processor counts mixed into the axis and
// cache hits on a repeat. An op marked batched whose batch evaluator
// disagrees with its per-spec evaluator fails here.
func TestRunSpaceBatchedLawsMatchesIndividual(t *testing.T) {
	var batchOps []Op
	for _, d := range opTable {
		if d.batch != nil {
			batchOps = append(batchOps, d.op)
		}
	}
	if len(batchOps) < 4 {
		t.Fatalf("op table marks %v batched; want speedup and the three laws", batchOps)
	}
	for _, op := range batchOps {
		t.Run(string(op), func(t *testing.T) {
			sp := Space{
				Op:       op,
				Ns:       []int{32, 64},
				Stencils: []string{"5-point", "9-point"},
				Shapes:   []string{"strip", "square"},
				Machines: []core.MachineSpec{
					{Type: "sync-bus"}, {Type: "hypercube"}, {Type: "banyan", Procs: 16},
				},
				Procs: []int{0, 1, 2, 16, 33, 4096},
			}
			batched := New(Options{Workers: 4})
			got, err := batched.RunSpace(context.Background(), sp)
			if err != nil {
				t.Fatal(err)
			}
			individual := New(Options{Workers: 4})
			specs := sp.Expand()
			if len(got) != len(specs) {
				t.Fatalf("got %d results, want %d", len(got), len(specs))
			}
			for i, s := range specs {
				want, wantErr := individual.Evaluate(context.Background(), s)
				r := got[i]
				if (r.Err == nil) != (wantErr == nil) {
					t.Fatalf("spec %d (%+v): batched err %v, individual err %v", i, s, r.Err, wantErr)
				}
				if r.Err != nil {
					if r.Err.Error() != wantErr.Error() {
						t.Fatalf("spec %d: batched err %q, individual err %q", i, r.Err, wantErr)
					}
					continue
				}
				if r.Value != want.Value {
					t.Fatalf("spec %d (%+v): batched value %g, individual %g", i, s, r.Value, want.Value)
				}
			}
			again, err := batched.RunSpace(context.Background(), sp)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range again {
				if r.Err == nil && !r.CacheHit {
					t.Fatalf("spec %d not served from cache on repeat", i)
				}
				if r.Value != got[i].Value {
					t.Fatalf("spec %d: repeat value %g != first %g", i, r.Value, got[i].Value)
				}
			}
		})
	}
}

// TestLawsConcurrentCacheEquivalence runs the same law space from many
// goroutines against one engine — batched groups coalescing in the
// shared cache — and checks every run returns identical values. Run
// under -race in CI, this is the cache-equivalence gate for the new
// ops.
func TestLawsConcurrentCacheEquivalence(t *testing.T) {
	sp := Space{
		Op:       OpAmdahl,
		Ns:       []int{32, 48, 64},
		Stencils: []string{"5-point"},
		Shapes:   []string{"square"},
		Machines: []core.MachineSpec{{Type: "sync-bus"}, {Type: "mesh"}},
		Procs:    []int{1, 2, 4, 8, 16},
	}
	e := New(Options{Workers: 4, CacheSize: 64})
	want, err := e.RunSpace(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := e.RunSpace(context.Background(), sp)
			if err != nil {
				errs <- err
				return
			}
			for i := range got {
				if got[i].Value != want[i].Value {
					t.Errorf("spec %d: concurrent value %g != %g", i, got[i].Value, want[i].Value)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
