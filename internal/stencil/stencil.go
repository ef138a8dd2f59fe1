// Package stencil defines discretization stencils for elliptic PDE solvers
// and the geometric quantities the Nicol-Willard performance model derives
// from them.
//
// A stencil is the set of grid-point offsets whose values enter the update
// of a point u[i][j] during one relaxation sweep. Two quantities drive the
// paper's cost model:
//
//   - E(S): the number of floating point operations needed to update one
//     grid point with stencil S (paper §3, t_comp = E(S)·A·T_flp);
//   - k(P, S): the number of partition "perimeters" that must be
//     communicated per iteration when partition shape P is used with
//     stencil S (paper §3, table of k values).
//
// k is purely geometric: it is the Chebyshev radius of the stencil for
// square partitions (a 13-point star reaches two rings of neighbors, so two
// perimeters travel) and the row radius for strip partitions.
package stencil

import (
	"fmt"
	"sort"
	"strings"
)

// Offset is a relative grid coordinate (DI rows, DJ columns) contributing
// to a stencil update. The center point (0,0) is implicit in every stencil
// and must not appear as an Offset.
type Offset struct {
	DI, DJ int
}

// Stencil describes a discretization stencil. It is a one-pointer handle onto
// an immutable definition built once by New and shared by every copy, so
// passing a Stencil (or a struct embedding one) by value copies a pointer,
// not the offsets and cached geometry.
//
// The zero value is not a valid stencil; use New or one of the package
// built-ins (FivePoint, NinePoint, NineStar, ThirteenPoint). Every method
// is safe to call on the zero value.
type Stencil struct {
	d *def
}

// def is a stencil's definition. It is never mutated after New returns.
type def struct {
	name    string
	offsets []Offset // canonical order, center excluded
	flops   float64  // E(S)

	// Cached geometry.
	rowRadius  int // max |DI|
	colRadius  int // max |DJ|
	chebRadius int // max(max|DI|, max|DJ|)
	diagonal   bool
}

// noDef stands in for the definition of the zero Stencil.
var noDef def

// def returns the stencil's definition, or the empty one for the zero
// value.
func (s Stencil) def() *def {
	if s.d == nil {
		return &noDef
	}
	return s.d
}

// New builds a stencil from a name, the neighbor offsets (center excluded),
// and the flop count E(S) for a single point update. It returns an error if
// the offset set is empty, contains the center, or contains duplicates.
func New(name string, offsets []Offset, flops float64) (Stencil, error) {
	if len(offsets) == 0 {
		return Stencil{}, fmt.Errorf("stencil %q: no offsets", name)
	}
	if flops <= 0 {
		return Stencil{}, fmt.Errorf("stencil %q: flops must be positive, got %g", name, flops)
	}
	seen := make(map[Offset]bool, len(offsets))
	canon := make([]Offset, 0, len(offsets))
	for _, o := range offsets {
		if o.DI == 0 && o.DJ == 0 {
			return Stencil{}, fmt.Errorf("stencil %q: center offset (0,0) must be implicit", name)
		}
		if seen[o] {
			return Stencil{}, fmt.Errorf("stencil %q: duplicate offset (%d,%d)", name, o.DI, o.DJ)
		}
		seen[o] = true
		canon = append(canon, o)
	}
	sort.Slice(canon, func(a, b int) bool {
		if canon[a].DI != canon[b].DI {
			return canon[a].DI < canon[b].DI
		}
		return canon[a].DJ < canon[b].DJ
	})
	d := &def{name: name, offsets: canon, flops: flops}
	for _, o := range canon {
		d.rowRadius = max(d.rowRadius, abs(o.DI))
		d.colRadius = max(d.colRadius, abs(o.DJ))
		if o.DI != 0 && o.DJ != 0 {
			d.diagonal = true
		}
	}
	d.chebRadius = max(d.rowRadius, d.colRadius)
	return Stencil{d}, nil
}

// MustNew is New but panics on error; intended for package-level built-ins
// and tests.
func MustNew(name string, offsets []Offset, flops float64) Stencil {
	s, err := New(name, offsets, flops)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the stencil's display name.
func (s Stencil) Name() string { return s.def().name }

// Offsets returns a copy of the neighbor offsets in canonical order. The
// center point is excluded.
func (s Stencil) Offsets() []Offset {
	offs := s.def().offsets
	out := make([]Offset, len(offs))
	copy(out, offs)
	return out
}

// Points returns the total number of points in the stencil, including the
// center.
func (s Stencil) Points() int { return len(s.def().offsets) + 1 }

// Flops returns E(S): the floating point operations per grid-point update
// (paper §3). The paper treats E(S) as a constant of the solution algorithm.
func (s Stencil) Flops() float64 { return s.def().flops }

// WithFlops returns a copy of the stencil with E(S) replaced. The paper's
// model leaves E(S) a free parameter (footnote 1, §3); this supports
// calibrating it without redefining geometry. The copy gets its own
// definition; s's is left untouched.
func (s Stencil) WithFlops(flops float64) Stencil {
	d := *s.def()
	if flops <= 0 {
		panic(fmt.Sprintf("stencil %q: WithFlops requires positive flops, got %g", d.name, flops))
	}
	d.flops = flops
	return Stencil{&d}
}

// RowRadius returns the maximum |row offset| of the stencil: the number of
// neighboring rows a point update reaches.
func (s Stencil) RowRadius() int { return s.def().rowRadius }

// ColRadius returns the maximum |column offset| of the stencil.
func (s Stencil) ColRadius() int { return s.def().colRadius }

// ChebyshevRadius returns max over offsets of max(|DI|, |DJ|): the number of
// square-partition perimeters the stencil reaches.
func (s Stencil) ChebyshevRadius() int { return s.def().chebRadius }

// HasDiagonal reports whether any offset has both DI != 0 and DJ != 0.
// Diagonal stencils force square partitions to exchange corner points with
// diagonal neighbors (paper §6.1 footnote: the model ignores the 4 corner
// words, a vanishing correction for large partitions).
func (s Stencil) HasDiagonal() bool { return s.def().diagonal }

// Valid reports whether the stencil was constructed by New (non-empty).
func (s Stencil) Valid() bool { return len(s.def().offsets) > 0 }

// String renders the stencil name and size, e.g. "5-point (k_strip=1)".
func (s Stencil) String() string {
	if !s.Valid() {
		return "invalid stencil"
	}
	return fmt.Sprintf("%s (%d-point, E=%g)", s.Name(), s.Points(), s.Flops())
}

// Render draws the stencil as ASCII art, one character cell per grid point,
// '*' for stencil members and '.' for untouched points (paper Fig. 1/3).
func (s Stencil) Render() string {
	r := s.ChebyshevRadius()
	var b strings.Builder
	for di := -r; di <= r; di++ {
		for dj := -r; dj <= r; dj++ {
			if dj > -r {
				b.WriteByte(' ')
			}
			switch {
			case di == 0 && dj == 0:
				b.WriteByte('o')
			case s.contains(Offset{di, dj}):
				b.WriteByte('*')
			default:
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (s Stencil) contains(o Offset) bool {
	for _, have := range s.def().offsets {
		if have == o {
			return true
		}
	}
	return false
}

// Equal reports whether two stencils have identical geometry and flop count.
func (s Stencil) Equal(t Stencil) bool {
	a, b := s.def(), t.def()
	if a.name != b.name || a.flops != b.flops || len(a.offsets) != len(b.offsets) {
		return false
	}
	for i := range a.offsets {
		if a.offsets[i] != b.offsets[i] {
			return false
		}
	}
	return true
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
