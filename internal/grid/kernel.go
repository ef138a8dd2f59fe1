package grid

import (
	"fmt"

	"optspeed/internal/stencil"
)

// Kernel is a concrete point-update rule built on a stencil: the weighted
// average applied by one Jacobi relaxation step,
//
//	u'[i][j] = Σ_o W(o)·u[i+o.DI][j+o.DJ] + RHSCoeff·f[i][j].
//
// Weights are indexed parallel to Stencil.Offsets(). For the convergence
// of Jacobi iteration on Dirichlet problems the built-in kernels keep
// Σ W(o) ≤ 1.
type Kernel struct {
	Stencil  stencil.Stencil
	Weights  []float64
	RHSCoeff float64
}

// NewKernel validates and builds a kernel. The weight slice must match the
// stencil's offset count.
func NewKernel(st stencil.Stencil, weights []float64, rhsCoeff float64) (Kernel, error) {
	if !st.Valid() {
		return Kernel{}, fmt.Errorf("grid: kernel needs a valid stencil")
	}
	if len(weights) != len(st.Offsets()) {
		return Kernel{}, fmt.Errorf("grid: kernel for %s needs %d weights, got %d",
			st.Name(), len(st.Offsets()), len(weights))
	}
	w := make([]float64, len(weights))
	copy(w, weights)
	return Kernel{Stencil: st, Weights: w, RHSCoeff: rhsCoeff}, nil
}

// uniformWeights returns n copies of 1/n.
func uniformWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	return w
}

// Laplace5 returns the point-Jacobi kernel for the 5-point Laplacian on a
// unit-square domain with mesh width h = 1/(n+1):
// u' = (u_N + u_S + u_E + u_W + h²·f)/4 (paper Fig. 1, left).
func Laplace5(n int) Kernel {
	h := 1 / float64(n+1)
	k, err := NewKernel(stencil.FivePoint, uniformWeights(4), h*h/4)
	if err != nil {
		panic(err)
	}
	return k
}

// Laplace9 returns the point-Jacobi kernel for the 9-point (Mehrstellen)
// Laplacian: u' = (4·Σ_edges + Σ_corners + 6h²·f)/20 (paper Fig. 1, right).
func Laplace9(n int) Kernel {
	h := 1 / float64(n+1)
	// Offsets in canonical order: (-1,-1) (-1,0) (-1,1) (0,-1) (0,1) (1,-1) (1,0) (1,1).
	w := []float64{
		1.0 / 20, 4.0 / 20, 1.0 / 20,
		4.0 / 20, 4.0 / 20,
		1.0 / 20, 4.0 / 20, 1.0 / 20,
	}
	k, err := NewKernel(stencil.NinePoint, w, 6*h*h/20)
	if err != nil {
		panic(err)
	}
	return k
}

// Star9 returns the point-Jacobi kernel for the fourth-order 9-point star
// Laplacian: per axis (−u±2 + 16·u±1)/12h²; Jacobi form
// u' = (16·Σ_near − Σ_far + 12h²·f)/60 (paper Fig. 3, left). Note the
// negative far weights; the iteration still converges for the smooth
// Dirichlet problems used in the tests.
func Star9(n int) Kernel {
	h := 1 / float64(n+1)
	// Canonical order: (-2,0) (-1,0) (0,-2) (0,-1) (0,1) (0,2) (1,0) (2,0).
	w := []float64{
		-1.0 / 60, 16.0 / 60,
		-1.0 / 60, 16.0 / 60, 16.0 / 60, -1.0 / 60,
		16.0 / 60, -1.0 / 60,
	}
	k, err := NewKernel(stencil.NineStar, w, 12*h*h/60)
	if err != nil {
		panic(err)
	}
	return k
}

// Averaging returns a synthetic smoothing kernel for any stencil: equal
// positive weights summing to one and no source term. It exercises the
// communication pattern of stencils (such as the 13-point star) without
// attaching a particular differential operator, and always converges on
// Dirichlet problems.
func Averaging(st stencil.Stencil) Kernel {
	k, err := NewKernel(st, uniformWeights(len(st.Offsets())), 0)
	if err != nil {
		panic(err)
	}
	return k
}

// Sweep performs one Jacobi sweep over the full interior: dst = kernel(src)
// with source term f (may be nil for a homogeneous problem). src and dst
// must have identical geometry and must not alias.
func Sweep(dst, src *Grid, k Kernel, f *Grid) error {
	return SweepRegion(dst, src, k, f, 0, src.N, 0, src.cols)
}

// SweepRegion performs one Jacobi sweep over rows [r0, r1) and columns
// [c0, c1) of the interior. It is the unit of work a partition executes
// per iteration; ghost/halo values of src must already be current. The
// built-in 5-point and 9-point kernels take specialized unrolled inner
// loops (see fastsweep.go) with identical floating-point results.
func SweepRegion(dst, src *Grid, k Kernel, f *Grid, r0, r1, c0, c1 int) error {
	if err := checkSweepArgs(dst, src, k, r0, r1, c0, c1); err != nil {
		return err
	}
	sweepClassified(dst, src, k, f, r0, r1, c0, c1, false)
	return nil
}

// SweepRegionDelta is SweepRegion fused with the convergence-check
// reduction: it returns Σ(dst−src)² over the region, computed inside
// the sweep loop instead of by a second pass over the same memory
// (SumSquaredDiffRegion). The sum is accumulated in the same row-major
// order as the two-pass form, so the result is bit-identical.
func SweepRegionDelta(dst, src *Grid, k Kernel, f *Grid, r0, r1, c0, c1 int) (float64, error) {
	if err := checkSweepArgs(dst, src, k, r0, r1, c0, c1); err != nil {
		return 0, err
	}
	return sweepClassified(dst, src, k, f, r0, r1, c0, c1, true), nil
}

// checkSweepArgs validates the shared sweep preconditions.
func checkSweepArgs(dst, src *Grid, k Kernel, r0, r1, c0, c1 int) error {
	if !dst.sameGeometry(src) {
		return fmt.Errorf("grid: SweepRegion geometry mismatch")
	}
	if r0 < 0 || c0 < 0 || r1 > src.N || c1 > src.cols || r0 > r1 || c0 > c1 {
		return fmt.Errorf("grid: SweepRegion region [%d,%d)x[%d,%d) out of bounds for %dx%d",
			r0, r1, c0, c1, src.N, src.cols)
	}
	if k.Stencil.ChebyshevRadius() > src.Halo {
		return fmt.Errorf("grid: stencil %s radius %d exceeds halo %d",
			k.Stencil.Name(), k.Stencil.ChebyshevRadius(), src.Halo)
	}
	return nil
}

// SweepSOR performs one successive-over-relaxation sweep in place on g
// with relaxation factor omega (omega = 1 is Gauss-Seidel). Unlike Jacobi
// it updates in row-major order using already-updated values; provided as
// the natural serial baseline extension.
func SweepSOR(g *Grid, k Kernel, f *Grid, omega float64) error {
	if k.Stencil.ChebyshevRadius() > g.Halo {
		return fmt.Errorf("grid: stencil %s radius %d exceeds halo %d",
			k.Stencil.Name(), k.Stencil.ChebyshevRadius(), g.Halo)
	}
	offs := k.Stencil.Offsets()
	flat := make([]int, len(offs))
	for i, o := range offs {
		flat[i] = o.DI*g.stride + o.DJ
	}
	for i := 0; i < g.N; i++ {
		base := g.index(i, 0)
		for j := 0; j < g.cols; j++ {
			idx := base + j
			var acc float64
			for t, fo := range flat {
				acc += k.Weights[t] * g.data[idx+fo]
			}
			if f != nil && k.RHSCoeff != 0 {
				acc += k.RHSCoeff * f.At(i, j)
			}
			g.data[idx] += omega * (acc - g.data[idx])
		}
	}
	return nil
}
