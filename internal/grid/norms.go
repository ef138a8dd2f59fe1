package grid

import (
	"fmt"
	"math"
)

// Residual computes r = kernel(u) − u over the interior: the fixed-point
// residual of one Jacobi application (zero exactly at the discrete
// solution). It returns the max and L2 norms. src halos must be current.
func Residual(u *Grid, k Kernel, f *Grid) (maxNorm, l2Norm float64, err error) {
	tmp := u.Clone()
	if err := Sweep(tmp, u, k, f); err != nil {
		return 0, 0, err
	}
	var sum float64
	for i := 0; i < u.N; i++ {
		for j := 0; j < u.cols; j++ {
			d := math.Abs(tmp.At(i, j) - u.At(i, j))
			if d > maxNorm {
				maxNorm = d
			}
			sum += d * d
		}
	}
	return maxNorm, math.Sqrt(sum), nil
}

// ErrorAgainst returns the max and L2 norms of u − exact(i, j) over the
// interior, for manufactured-solution verification.
func ErrorAgainst(u *Grid, exact func(i, j int) float64) (maxNorm, l2Norm float64) {
	var sum float64
	for i := 0; i < u.N; i++ {
		for j := 0; j < u.cols; j++ {
			d := math.Abs(u.At(i, j) - exact(i, j))
			if d > maxNorm {
				maxNorm = d
			}
			sum += d * d
		}
	}
	return maxNorm, math.Sqrt(sum)
}

// InteriorSum returns Σ u over interior points (a cheap conserved-ish
// statistic used by tests).
func (g *Grid) InteriorSum() float64 {
	var s float64
	for i := 0; i < g.N; i++ {
		for j := 0; j < g.cols; j++ {
			s += g.At(i, j)
		}
	}
	return s
}

// CheckFinite returns an error naming the first non-finite interior
// value, if any — a guard for iterative solvers.
func (g *Grid) CheckFinite() error {
	for i := 0; i < g.N; i++ {
		for j := 0; j < g.cols; j++ {
			if v := g.At(i, j); math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("grid: non-finite value %g at (%d,%d)", v, i, j)
			}
		}
	}
	return nil
}
