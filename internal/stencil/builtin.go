package stencil

// Built-in stencils from the paper (Fig. 1 and Fig. 3). Flop counts E(S)
// follow the standard operation counts for a point-Jacobi update:
// (#neighbors) adds + 1 multiply for the 5-point Laplacian, and
// proportionally for the larger stencils. The paper leaves E(S) as a free
// constant; these defaults are calibrated with the default machines
// (internal/core/machine.go) so that the paper's Fig. 7 anchors reproduce
// (E(5-point)=5, E(9-point)=10). Use WithFlops to recalibrate.
var (
	// FivePoint is the classic 5-point Laplacian stencil (paper Fig. 1,
	// left): the four axis neighbors at distance one.
	FivePoint = MustNew("5-point", []Offset{
		{-1, 0}, {0, -1}, {0, 1}, {1, 0},
	}, 5)

	// NinePoint is the higher-order 9-point box stencil (paper Fig. 1,
	// right): all eight neighbors in the unit Chebyshev ball. It has
	// diagonals, so square partitions must also exchange corner points,
	// but it still communicates a single perimeter: k(square, 9pt) = 1.
	NinePoint = MustNew("9-point", []Offset{
		{-1, -1}, {-1, 0}, {-1, 1},
		{0, -1}, {0, 1},
		{1, -1}, {1, 0}, {1, 1},
	}, 10)

	// NineStar is the 9-point star stencil (paper Fig. 3, left): arms of
	// length two along each axis. Its radius of two makes every partition
	// shape communicate two perimeters: k = 2.
	NineStar = MustNew("9-star", []Offset{
		{-2, 0}, {-1, 0}, {1, 0}, {2, 0},
		{0, -2}, {0, -1}, {0, 1}, {0, 2},
	}, 10)

	// ThirteenPoint is the 13-point star stencil (paper Fig. 3, right):
	// the 9-point star plus the four unit diagonals. k = 2 for every
	// partition shape.
	ThirteenPoint = MustNew("13-point", []Offset{
		{-2, 0},
		{-1, -1}, {-1, 0}, {-1, 1},
		{0, -2}, {0, -1}, {0, 1}, {0, 2},
		{1, -1}, {1, 0}, {1, 1},
		{2, 0},
	}, 14)
)

// Builtins returns the four stencils analyzed in the paper, in the order
// they appear there.
func Builtins() []Stencil {
	return []Stencil{FivePoint, NinePoint, NineStar, ThirteenPoint}
}

// ByName returns the built-in stencil with the given name ("5-point",
// "9-point", "9-star", "13-point") and whether it exists. It allocates
// nothing: the sweep engine resolves a stencil per evaluated spec on its
// hot path.
func ByName(name string) (Stencil, bool) {
	switch name {
	case "5-point":
		return FivePoint, true
	case "9-point":
		return NinePoint, true
	case "9-star":
		return NineStar, true
	case "13-point":
		return ThirteenPoint, true
	default:
		return Stencil{}, false
	}
}
