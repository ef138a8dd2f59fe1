package sweep

import (
	"math/rand"
	"reflect"
	"testing"

	"optspeed/internal/core"
)

// TestShardSpaceCoversExpandOrder is the planner's core property,
// checked exhaustively over randomized spaces: concatenating the
// shards' expansions in slice order reproduces the parent expansion
// exactly, every shard respects the size bound, and Start offsets
// match the running position. It also pins Space.At, which the engine's
// workers and the coordinator name specs by, to the nesting order: the
// parent's Expand()[i] and At(i) are the i-th spec of nested loops over
// the axes (ns outermost, procs innermost), and a shard's At(j) is the
// parent's At(Start+j).
func TestShardSpaceCoversExpandOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	stencils := []string{"5-point", "9-point", "9-star", "13-point"}
	shapes := []string{"strip", "square"}
	machines := []core.MachineSpec{
		{Type: "sync-bus"}, {Type: "hypercube"}, {Type: "mesh"},
		{Type: "banyan"}, {Type: "async-bus"},
	}
	for iter := 0; iter < 500; iter++ {
		sp := Space{
			Op:       OpSpeedup,
			Ns:       make([]int, 1+rng.Intn(5)),
			Stencils: stencils[:1+rng.Intn(len(stencils))],
			Shapes:   shapes[:1+rng.Intn(len(shapes))],
			Machines: machines[:1+rng.Intn(len(machines))],
			Target:   float64(rng.Intn(3)),
		}
		for i := range sp.Ns {
			sp.Ns[i] = 8 << i
		}
		if rng.Intn(4) > 0 {
			sp.Procs = make([]int, 1+rng.Intn(6))
			for i := range sp.Procs {
				sp.Procs[i] = 1 + i
			}
		}
		shardSize := 1 + rng.Intn(sp.Size()+3)
		shards := ShardSpace(sp, shardSize)

		want := nestedSpecs(sp)
		if got := sp.Expand(); !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: Expand() diverges from the nested axis loops", iter)
		}
		for i := range want {
			if got := sp.At(i); got != want[i] {
				t.Fatalf("iter %d: At(%d) = %+v, nested loops' spec %d = %+v", iter, i, got, i, want[i])
			}
		}
		var got []Spec
		for i, sh := range shards {
			if sh.Start != len(got) {
				t.Fatalf("iter %d shard %d: Start=%d, want %d", iter, i, sh.Start, len(got))
			}
			for j := 0; j < sh.Space.Size(); j++ {
				if a, b := sh.Space.At(j), sp.At(sh.Start+j); a != b {
					t.Fatalf("iter %d shard %d: At(%d) = %+v, parent At(%d) = %+v", iter, i, j, a, sh.Start+j, b)
				}
			}
			part := sh.Space.Expand()
			if len(part) == 0 {
				t.Fatalf("iter %d shard %d: empty shard", iter, i)
			}
			if len(part) > shardSize {
				t.Fatalf("iter %d shard %d: %d specs exceeds shard size %d", iter, i, len(part), shardSize)
			}
			got = append(got, part...)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: sharded expansion diverges from parent (size=%d shardSize=%d shards=%d)",
				iter, sp.Size(), shardSize, len(shards))
		}
	}
}

// nestedSpecs enumerates sp with one loop per axis, ns outermost and
// procs innermost: the order Space.At decodes.
func nestedSpecs(sp Space) []Spec {
	procsAxis := sp.Procs
	if len(procsAxis) == 0 {
		procsAxis = []int{0}
	}
	var out []Spec
	for _, n := range sp.Ns {
		for _, st := range sp.Stencils {
			for _, sh := range sp.Shapes {
				for _, m := range sp.Machines {
					for _, procs := range procsAxis {
						out = append(out, Spec{Op: sp.Op, N: n, Stencil: st, Shape: sh, Machine: m,
							Procs: procs, Target: sp.Target, PointsPerProc: sp.PointsPerProc})
					}
				}
			}
		}
	}
	return out
}

func TestShardSpaceSingleShard(t *testing.T) {
	sp := Space{
		Ns:       []int{64, 128},
		Stencils: []string{"5-point"},
		Shapes:   []string{"strip"},
		Machines: []core.MachineSpec{{Type: "sync-bus"}},
	}
	for _, size := range []int{0, -1, sp.Size(), sp.Size() + 100} {
		shards := ShardSpace(sp, size)
		if len(shards) != 1 || shards[0].Start != 0 {
			t.Fatalf("shardSize=%d: want one shard at 0, got %+v", size, shards)
		}
		if !reflect.DeepEqual(shards[0].Space.Expand(), sp.Expand()) {
			t.Fatalf("shardSize=%d: single shard diverges from parent", size)
		}
	}
}

func TestShardSpaceEmptyAndOverflow(t *testing.T) {
	if got := ShardSpace(Space{}, 4); got != nil {
		t.Fatalf("empty space: want nil, got %+v", got)
	}
	huge := make([]int, 1<<20)
	over := Space{
		Ns:       huge,
		Stencils: make([]string, 1<<15),
		Shapes:   make([]string, 1<<15),
		Machines: make([]core.MachineSpec, 1<<15),
	}
	if got := ShardSpace(over, 4); got != nil {
		t.Fatalf("overflowing space: want nil, got %d shards", len(got))
	}
}

// TestShardSpaceKeepsBatchedGroups pins that a speedup space sharded at
// a multiple of its procs-axis length yields shards whose procs axis is
// the full parent axis — the shape the engine's batched fast path
// groups on.
func TestShardSpaceKeepsBatchedGroups(t *testing.T) {
	sp := Space{
		Op:       OpSpeedup,
		Ns:       []int{64, 128, 256, 512},
		Stencils: []string{"5-point"},
		Shapes:   []string{"strip", "square"},
		Machines: []core.MachineSpec{{Type: "sync-bus"}},
		Procs:    []int{1, 2, 4, 8},
	}
	shards := ShardSpace(sp, 2*len(sp.Procs))
	if len(shards) == 0 {
		t.Fatal("no shards")
	}
	for i, sh := range shards {
		if len(sh.Space.Procs) != len(sp.Procs) {
			t.Fatalf("shard %d: procs axis sliced to %v; want the full axis", i, sh.Space.Procs)
		}
	}
}
