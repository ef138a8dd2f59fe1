package sweep

import "math"

// SpaceShard is one contiguous slice of a space's Expand order,
// re-expressed as a sub-space: Space.Expand() reproduces exactly the
// parent's specs [Start, Start+Space.Size()). Representing shards as
// sub-spaces rather than flat spec lists keeps the engine's space-aware
// evaluation — each machine axis value resolved once, and the batched
// speedup fast path — intact on whichever node evaluates the shard.
type SpaceShard struct {
	// Start is the index of the shard's first spec in the parent
	// space's Expand order.
	Start int
	// Space expands to the parent's specs [Start, Start+Space.Size()).
	Space Space
}

// ShardSpace partitions sp into contiguous sub-spaces of at most
// shardSize specs each, covering the parent's Expand order exactly:
// concatenating the shards' expansions in slice order reproduces
// sp.Expand() element for element, which is the invariant the
// distributed scatter–gather layer relies on to reassemble shard
// results into single-node order.
//
// The planner picks the outermost axis whose full inner block (the
// product of the axes nested inside it) fits within shardSize, pins
// every axis outside it to a single value, and slices runs of values
// along it; axes inside the split stay whole, so each shard remains a
// rectangular sub-space. A shardSize of 0 or less, or one the whole
// space already fits in, yields a single shard. Empty and overflowing
// spaces yield nil (the caller rejects those before planning).
func ShardSpace(sp Space, shardSize int) []SpaceShard {
	size := sp.Size()
	if size == 0 || size == math.MaxInt {
		return nil
	}
	if shardSize <= 0 || size <= shardSize {
		return []SpaceShard{{Start: 0, Space: sp}}
	}
	// Axis lengths in Expand nesting order (ns outermost … procs
	// innermost); an absent procs axis behaves as the single value 0.
	dims := [5]int{len(sp.Ns), len(sp.Stencils), len(sp.Shapes), len(sp.Machines), len(sp.Procs)}
	if dims[4] == 0 {
		dims[4] = 1
	}
	// inner[i] is the spec count of one full block nested inside axis i.
	var inner [5]int
	inner[4] = 1
	for i := 3; i >= 0; i-- {
		inner[i] = inner[i+1] * dims[i+1]
	}
	// Split at the outermost axis whose inner block fits; inner[4] is 1,
	// so a split level always exists for any shardSize >= 1.
	split := 0
	for split < 4 && inner[split] > shardSize {
		split++
	}
	valuesPerShard := shardSize / inner[split]

	outerCombos := 1
	for i := 0; i < split; i++ {
		outerCombos *= dims[i]
	}
	shardsPerCombo := (dims[split] + valuesPerShard - 1) / valuesPerShard
	shards := make([]SpaceShard, 0, outerCombos*shardsPerCombo)
	for outer := 0; outer < outerCombos; outer++ {
		// Decompose the flat outer index into per-axis positions, in
		// nesting order.
		var pos [5]int
		rem := outer
		for i := split - 1; i >= 0; i-- {
			pos[i] = rem % dims[i]
			rem /= dims[i]
		}
		for lo := 0; lo < dims[split]; lo += valuesPerShard {
			hi := lo + valuesPerShard
			if hi > dims[split] {
				hi = dims[split]
			}
			shards = append(shards, SpaceShard{
				Start: (outer*dims[split] + lo) * inner[split],
				Space: subSpace(sp, split, pos, lo, hi),
			})
		}
	}
	return shards
}

// subSpace builds the shard sub-space: axes outside split are pinned to
// the single value at pos, the split axis is sliced to [lo, hi), and
// axes inside the split are kept whole. The scalar fields (Op, Target,
// PointsPerProc) carry over unchanged.
func subSpace(sp Space, split int, pos [5]int, lo, hi int) Space {
	sub := sp
	axis := func(i int) (a, b int, pinned bool) {
		switch {
		case i < split:
			return pos[i], pos[i] + 1, true
		case i == split:
			return lo, hi, true
		default:
			return 0, 0, false
		}
	}
	if a, b, ok := axis(0); ok {
		sub.Ns = sp.Ns[a:b]
	}
	if a, b, ok := axis(1); ok {
		sub.Stencils = sp.Stencils[a:b]
	}
	if a, b, ok := axis(2); ok {
		sub.Shapes = sp.Shapes[a:b]
	}
	if a, b, ok := axis(3); ok {
		sub.Machines = sp.Machines[a:b]
	}
	if a, b, ok := axis(4); ok && len(sp.Procs) > 0 {
		sub.Procs = sp.Procs[a:b]
	}
	return sub
}
