// Package grid provides the dense n×n computational grid on which the
// reproduced experiments run: storage with a ghost ring for boundary
// values, Dirichlet boundary conditions, and relaxation sweeps (point
// Jacobi and weighted variants) for the stencils in the paper.
//
// The paper's model world (§3): a square physical domain discretized into
// an n×n grid of interior points with constant boundary values, updated by
// point Jacobi according to a discretization stencil.
package grid

import (
	"fmt"
	"math"
)

// Grid is an n×n grid of interior points surrounded by a ghost ring wide
// enough for the stencils in use (two points, the largest radius among the
// paper's stencils). Interior points are addressed (i, j) with
// 0 ≤ i, j < N; ghost points extend to index -Halo and N+Halo-1.
//
// A block (NewBlock) is a rows×cols grid, the local grid of one worker
// in a partitioned solve: its N is the row count and Cols() the column
// count, and column indices run to Cols()+Halo-1.
type Grid struct {
	N    int // interior points per side; a block's interior rows
	Halo int // ghost ring width

	cols   int // interior columns: N, except for a block
	stride int
	data   []float64
}

// DefaultHalo accommodates every built-in stencil (radius ≤ 2).
const DefaultHalo = 2

// New allocates an n×n grid (all zeros) with the default ghost ring.
func New(n int) (*Grid, error) { return NewHalo(n, DefaultHalo) }

// NewHalo allocates an n×n grid with a ghost ring of the given width.
func NewHalo(n, halo int) (*Grid, error) {
	if n < 1 {
		return nil, fmt.Errorf("grid: size n=%d must be positive", n)
	}
	return NewBlock(n, n, halo)
}

// NewBlock allocates a rows×cols block with a ghost ring of the given
// width.
func NewBlock(rows, cols, halo int) (*Grid, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("grid: block %dx%d must be positive", rows, cols)
	}
	if halo < 0 {
		return nil, fmt.Errorf("grid: halo %d must be non-negative", halo)
	}
	stride := cols + 2*halo
	return &Grid{
		N:      rows,
		Halo:   halo,
		cols:   cols,
		stride: stride,
		data:   make([]float64, (rows+2*halo)*stride),
	}, nil
}

// MustNew is New but panics on error; for tests and examples.
func MustNew(n int) *Grid {
	g, err := New(n)
	if err != nil {
		panic(err)
	}
	return g
}

func (g *Grid) index(i, j int) int {
	return (i+g.Halo)*g.stride + (j + g.Halo)
}

// At returns the value at (i, j). Ghost points are addressable with
// indices in [-Halo, N+Halo).
func (g *Grid) At(i, j int) float64 { return g.data[g.index(i, j)] }

// Set stores v at (i, j); ghost points are addressable.
func (g *Grid) Set(i, j int, v float64) { g.data[g.index(i, j)] = v }

// Cols returns the number of interior columns: N, except for a block.
func (g *Grid) Cols() int { return g.cols }

// Stride returns the row stride of the backing array, for kernels that
// index it directly.
func (g *Grid) Stride() int { return g.stride }

// Data returns the backing array (row-major, including ghost ring).
// Index (i, j) lives at (i+Halo)*Stride() + j + Halo.
func (g *Grid) Data() []float64 { return g.data }

// Fill sets every interior point to v.
func (g *Grid) Fill(v float64) {
	for i := 0; i < g.N; i++ {
		row := g.index(i, 0)
		for j := 0; j < g.cols; j++ {
			g.data[row+j] = v
		}
	}
}

// FillFunc sets every interior point to f(i, j).
func (g *Grid) FillFunc(f func(i, j int) float64) {
	for i := 0; i < g.N; i++ {
		row := g.index(i, 0)
		for j := 0; j < g.cols; j++ {
			g.data[row+j] = f(i, j)
		}
	}
}

// SetBoundary writes the Dirichlet boundary function into the full ghost
// ring: every ghost point (i, j) outside the interior gets f(i, j). Use
// SetConstantBoundary for the paper's constant-boundary assumption.
func (g *Grid) SetBoundary(f func(i, j int) float64) {
	for i := -g.Halo; i < g.N+g.Halo; i++ {
		for j := -g.Halo; j < g.cols+g.Halo; j++ {
			if i >= 0 && i < g.N && j >= 0 && j < g.cols {
				continue
			}
			g.Set(i, j, f(i, j))
		}
	}
}

// SetConstantBoundary writes the constant v into the whole ghost ring
// (paper §3: "constant boundary values are assumed").
func (g *Grid) SetConstantBoundary(v float64) {
	g.SetBoundary(func(i, j int) float64 { return v })
}

// Clone returns a deep copy of the grid, ghost ring included.
func (g *Grid) Clone() *Grid {
	out := &Grid{N: g.N, Halo: g.Halo, cols: g.cols, stride: g.stride, data: make([]float64, len(g.data))}
	copy(out.data, g.data)
	return out
}

// CopyFrom copies all data (ghost ring included) from src, which must have
// identical geometry.
func (g *Grid) CopyFrom(src *Grid) error {
	if !g.sameGeometry(src) {
		return fmt.Errorf("grid: CopyFrom geometry mismatch: %dx%d/halo %d vs %dx%d/halo %d",
			g.N, g.cols, g.Halo, src.N, src.cols, src.Halo)
	}
	copy(g.data, src.data)
	return nil
}

// sameGeometry reports whether g and other have the same extent and
// ghost ring.
func (g *Grid) sameGeometry(other *Grid) bool {
	return g.N == other.N && g.cols == other.cols && g.Halo == other.Halo
}

// Swap exchanges the backing arrays of two grids with identical geometry;
// the idiomatic double-buffer step between Jacobi sweeps.
func (g *Grid) Swap(other *Grid) error {
	if !g.sameGeometry(other) {
		return fmt.Errorf("grid: Swap geometry mismatch")
	}
	g.data, other.data = other.data, g.data
	return nil
}

// MaxAbsDiff returns max |g − other| over interior points.
func (g *Grid) MaxAbsDiff(other *Grid) float64 {
	var m float64
	for i := 0; i < g.N; i++ {
		for j := 0; j < g.cols; j++ {
			d := math.Abs(g.At(i, j) - other.At(i, j))
			if d > m {
				m = d
			}
		}
	}
	return m
}

// SumSquaredDiff returns Σ (g − other)² over interior points: the paper's
// convergence-check statistic (§4, "sum of squared update differences over
// subgrid").
func (g *Grid) SumSquaredDiff(other *Grid) float64 {
	var s float64
	for i := 0; i < g.N; i++ {
		for j := 0; j < g.cols; j++ {
			d := g.At(i, j) - other.At(i, j)
			s += d * d
		}
	}
	return s
}

// SumSquaredDiffRegion is SumSquaredDiff restricted to rows [r0, r1) and
// columns [c0, c1); partitions use it for local convergence numbers.
func (g *Grid) SumSquaredDiffRegion(other *Grid, r0, r1, c0, c1 int) float64 {
	var s float64
	for i := r0; i < r1; i++ {
		for j := c0; j < c1; j++ {
			d := g.At(i, j) - other.At(i, j)
			s += d * d
		}
	}
	return s
}
