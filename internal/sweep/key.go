package sweep

import (
	"fmt"
	"math"

	"optspeed/internal/core"
	"optspeed/internal/partition"
)

// specKey is the engine's internal cache key: a fixed-size comparable
// struct over the fields a spec's op actually consumes, plus the
// canonical machine description. Two specs evaluate to the same model
// point exactly when their specKeys are equal — the same equality
// classes as the string form Spec.Key(), without the fmt.Sprintf
// allocations (the eval hot path builds one of these per spec, hashes
// it and looks it up in the cache; no step allocates). Spec.Key() is
// the reference the key tests compare these classes against.
type specKey struct {
	op      uint8
	stencil uint8
	shape   uint8
	n       int64
	procs   int64
	target  float64
	f       float64
	mach    machKey
}

// machKey is the canonical machine portion of a specKey: the fields of
// core.MachineSpec after default filling and irrelevant-field zeroing
// (core.MachineSpec.Canonical), packed into a comparable struct.
type machKey struct {
	typ         uint8
	readsOnly   bool
	convHW      bool
	procs       int64
	tflp        float64
	busCycle    float64
	busOverhead float64
	alpha       float64
	beta        float64
	packet      float64
	switchTime  float64
}

// machTypeCode maps a canonical machine type string to its key code.
func machTypeCode(typ string) (uint8, bool) {
	switch typ {
	case "hypercube":
		return 0, true
	case "mesh":
		return 1, true
	case "sync-bus":
		return 2, true
	case "async-bus":
		return 3, true
	case "full-async-bus":
		return 4, true
	case "banyan":
		return 5, true
	default:
		return 0, false
	}
}

// stencilCode maps a built-in stencil name to its key code; the codes
// only need to separate the stencils the engine can resolve.
func stencilCode(name string) (uint8, bool) {
	switch name {
	case "5-point":
		return 0, true
	case "9-point":
		return 1, true
	case "9-star":
		return 2, true
	case "13-point":
		return 3, true
	default:
		return 0, false
	}
}

// machKeyFor packs a canonical machine spec (one produced by
// core.SpecFor of a materialized machine) into its key form. NaN
// fields are rejected: NaN != NaN would make the key unequal to
// itself, so the cache could never find its entry again (a permanent
// miss that fills the cache with dead entries). No NaN may ever enter
// a specKey.
func machKeyFor(canon core.MachineSpec) (machKey, error) {
	code, ok := machTypeCode(canon.Type)
	if !ok {
		return machKey{}, fmt.Errorf("core: unknown machine type %q", canon.Type)
	}
	for _, v := range [...]float64{canon.Tflp, canon.BusCycle, canon.BusOverhead,
		canon.Alpha, canon.Beta, canon.PacketWords, canon.SwitchTime} {
		if math.IsNaN(v) {
			return machKey{}, fmt.Errorf("sweep: NaN machine parameter in %q spec", canon.Type)
		}
	}
	return machKey{
		typ:         code,
		readsOnly:   canon.ReadsOnly,
		convHW:      canon.ConvHW,
		procs:       int64(canon.Procs),
		tflp:        canon.Tflp,
		busCycle:    canon.BusCycle,
		busOverhead: canon.BusOverhead,
		alpha:       canon.Alpha,
		beta:        canon.Beta,
		packet:      canon.PacketWords,
		switchTime:  canon.SwitchTime,
	}, nil
}

// buildKey composes the struct key from the spec and its resolved
// parts, keeping only the fields the op's table row names: fields an
// op does not consume are zeroed so they cannot split the cache, and
// the grid searches drop N because their answer is seed-independent.
func buildKey(s Spec, stCode uint8, sh partition.Shape, mk machKey) (specKey, error) {
	d, code := lookupOp(s.Op)
	if d == nil {
		return specKey{}, errUnknownOp(s.Op)
	}
	k := specKey{op: code, stencil: stCode, shape: uint8(sh), mach: mk}
	if d.key&keyN != 0 {
		k.n = int64(s.N)
	}
	if d.key&keyProcs != 0 {
		k.procs = int64(s.Procs)
	}
	if d.key&keyTarget != 0 {
		k.target = s.Target
	}
	if d.key&keyF != 0 {
		k.f = s.PointsPerProc
	}
	// A NaN field would break the comparable key's equality (see
	// machKeyFor); such specs are invalid for their ops anyway, so they
	// fail resolution instead of ever reaching the cache.
	if math.IsNaN(k.target) || math.IsNaN(k.f) {
		return specKey{}, fmt.Errorf("sweep: NaN target or points_per_proc in %q spec", d.op)
	}
	return k, nil
}

// hash mixes the key's fields with FNV-1a over 64-bit words — no
// byte-slice materialization, no allocation. The cache computes it
// once per lookup and uses it both to pick a shard and as the shard's
// index key.
func (k specKey) hash() uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	packed := uint64(k.op) | uint64(k.stencil)<<8 | uint64(k.shape)<<16 | uint64(k.mach.typ)<<24
	if k.mach.readsOnly {
		packed |= 1 << 32
	}
	if k.mach.convHW {
		packed |= 1 << 33
	}
	mix(packed)
	mix(uint64(k.n))
	mix(uint64(k.procs))
	mix(math.Float64bits(k.target))
	mix(math.Float64bits(k.f))
	mix(uint64(k.mach.procs))
	mix(math.Float64bits(k.mach.tflp))
	mix(math.Float64bits(k.mach.busCycle))
	mix(math.Float64bits(k.mach.busOverhead))
	mix(math.Float64bits(k.mach.alpha))
	mix(math.Float64bits(k.mach.beta))
	mix(math.Float64bits(k.mach.packet))
	mix(math.Float64bits(k.mach.switchTime))
	return h
}
