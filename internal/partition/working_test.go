package partition

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewWorkingSetValidation(t *testing.T) {
	if _, err := NewWorkingSet(0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewWorkingSetTol(8, -0.1); err == nil {
		t.Error("negative tolerance accepted")
	}
}

// TestWorkingSetSquareLike: every working rectangle satisfies the 5% rule
// and is the minimum-perimeter representative of its area.
func TestWorkingSetSquareLike(t *testing.T) {
	for _, n := range []int{64, 128, 256} {
		ws, err := NewWorkingSet(n)
		if err != nil {
			t.Fatal(err)
		}
		if ws.Len() == 0 {
			t.Fatalf("n=%d: empty working set", n)
		}
		seen := map[int]bool{}
		for _, r := range ws.Rects() {
			if seen[r.Area()] {
				t.Fatalf("n=%d: duplicate area %d", n, r.Area())
			}
			seen[r.Area()] = true
			ideal := 4 * math.Sqrt(float64(r.Area()))
			if float64(r.Perimeter()) > 1.05*ideal {
				t.Errorf("n=%d: rect %v perimeter %d exceeds 5%% of %g",
					n, r, r.Perimeter(), ideal)
			}
		}
	}
}

// TestWorkingSetContainsPerfectSquares: every realizable h×h with h a
// divisor-height must be a working rectangle (its perimeter error is 0).
func TestWorkingSetContainsPerfectSquares(t *testing.T) {
	n := 256
	ws, err := NewWorkingSet(n)
	if err != nil {
		t.Fatal(err)
	}
	areas := map[int]Rect{}
	for _, r := range ws.Rects() {
		areas[r.Area()] = r
	}
	heights := map[int]bool{}
	for _, h := range StripHeights(n) {
		heights[h] = true
	}
	for _, w := range Divisors(n) {
		if !heights[w] {
			continue
		}
		r, ok := areas[w*w]
		if !ok {
			t.Errorf("square %dx%d missing from working set", w, w)
			continue
		}
		if r.Perimeter() > 4*w {
			t.Errorf("area %d: working rect %v beats no square", w*w, r)
		}
	}
}

func TestNearest(t *testing.T) {
	ws, err := NewWorkingSet(64)
	if err != nil {
		t.Fatal(err)
	}
	rects := ws.Rects()
	first, last := rects[0], rects[len(rects)-1]
	if got, ok := ws.Nearest(0.5); !ok || got != first {
		t.Errorf("Nearest(0.5) = %v, %v", got, ok)
	}
	if got, ok := ws.Nearest(1e9); !ok || got != last {
		t.Errorf("Nearest(1e9) = %v, %v", got, ok)
	}
	if _, ok := ws.Nearest(-1); ok {
		t.Error("Nearest(-1) ok")
	}
	// Exact hit returns the exact rect.
	mid := rects[len(rects)/2]
	if got, ok := ws.Nearest(float64(mid.Area())); !ok || got.Area() != mid.Area() {
		t.Errorf("Nearest(exact %d) = %v, %v", mid.Area(), got, ok)
	}
}

// Property: Nearest returns a rectangle minimizing |area − target| among
// the working set.
func TestNearestProperty(t *testing.T) {
	ws, err := NewWorkingSet(96)
	if err != nil {
		t.Fatal(err)
	}
	rects := ws.Rects()
	rng := rand.New(rand.NewSource(7))
	f := func() bool {
		target := rng.Float64() * 96 * 96 * 1.2
		if target <= 0 {
			target = 1
		}
		got, ok := ws.Nearest(target)
		if !ok {
			return false
		}
		best := math.Inf(1)
		for _, r := range rects {
			if d := math.Abs(float64(r.Area()) - target); d < best {
				best = d
			}
		}
		return math.Abs(float64(got.Area())-target) == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// fig6Stats summarizes an error sweep: the fraction of samples whose area
// error is below 3% and whose perimeter error is below 6%, plus maxima.
func fig6Stats(errs []ApproxError) (fracArea3, fracPerim6, maxArea, maxPerim float64) {
	var okA, okP int
	for _, e := range errs {
		if e.AreaErr < 0.03 {
			okA++
		}
		if e.PerimErr < 0.06 {
			okP++
		}
		if e.AreaErr > maxArea {
			maxArea = e.AreaErr
		}
		if e.PerimErr > maxPerim {
			maxPerim = e.PerimErr
		}
	}
	n := float64(len(errs))
	return float64(okA) / n, float64(okP) / n, maxArea, maxPerim
}

// TestFig6ErrorBounds reproduces the paper's Fig. 6 claim: on a 256×256
// grid, choosing the working rectangle with area closest to each even
// A ∈ [1024, 16384] keeps the area error "usually less than 3%" and the
// perimeter error "usually less than 6%". With power-of-two widths the
// 5% square-likeness filter discards whole area bands (e.g. every 2048-
// point rectangle has aspect ratio ≥ 2), so isolated spikes near 8% are
// inherent to the paper's construction; we assert the "usually" claim as
// ≥ 85% of samples under the bound, plus a 10% hard ceiling.
func TestFig6ErrorBounds(t *testing.T) {
	ws, err := NewWorkingSet(256)
	if err != nil {
		t.Fatal(err)
	}
	errs := ws.ErrorSweep(1024, 16384)
	if len(errs) == 0 {
		t.Fatal("no error samples")
	}
	fracA, fracP, maxA, maxP := fig6Stats(errs)
	if fracA < 0.85 {
		t.Errorf("only %.1f%% of samples have area error < 3%% (want ≥ 85%%)", 100*fracA)
	}
	if fracP < 0.85 {
		t.Errorf("only %.1f%% of samples have perimeter error < 6%% (want ≥ 85%%)", 100*fracP)
	}
	if maxA >= 0.10 {
		t.Errorf("max area error %.4f ≥ 10%%", maxA)
	}
	if maxP >= 0.10 {
		t.Errorf("max perimeter error %.4f ≥ 10%%", maxP)
	}
}

// TestFig6OtherGrids covers the paper's "similar results were obtained
// for 128x128, 512x512, and 1024x1024 size grids".
func TestFig6OtherGrids(t *testing.T) {
	if testing.Short() {
		t.Skip("large grids in -short mode")
	}
	for _, n := range []int{128, 512, 1024} {
		ws, err := NewWorkingSet(n)
		if err != nil {
			t.Fatal(err)
		}
		// Same 4..64-processor range as the 256 case, scaled.
		lo, hi := n*n/64, n*n/4
		errs := ws.ErrorSweep(lo, hi)
		if len(errs) == 0 {
			t.Fatalf("n=%d: no samples", n)
		}
		fracA, fracP, maxA, maxP := fig6Stats(errs)
		if fracA < 0.85 {
			t.Errorf("n=%d: only %.1f%% of samples have area error < 3%%", n, 100*fracA)
		}
		if fracP < 0.85 {
			t.Errorf("n=%d: only %.1f%% of samples have perimeter error < 6%%", n, 100*fracP)
		}
		if maxA >= 0.10 || maxP >= 0.10 {
			t.Errorf("n=%d: max errors %.4f/%.4f ≥ 10%%", n, maxA, maxP)
		}
	}
}

func TestErrorsNoWorkingSet(t *testing.T) {
	ws := &WorkingSet{N: 4, Tolerance: 0}
	if _, ok := ws.Errors(16); ok {
		t.Error("Errors on empty set succeeded")
	}
}

// TestRealizableProcCounts: the square-decomposition counts are sparse
// relative to strips (the paper's §3 freedom remark), sorted, and in
// range.
func TestRealizableProcCounts(t *testing.T) {
	n := 256
	ws, err := NewWorkingSet(n)
	if err != nil {
		t.Fatal(err)
	}
	counts := ws.RealizableProcCounts()
	if len(counts) == 0 {
		t.Fatal("no realizable counts")
	}
	if !sort.IntsAreSorted(counts) {
		t.Error("counts unsorted")
	}
	inRange := 0
	seen := map[int]bool{}
	for _, c := range counts {
		if c < 1 {
			t.Errorf("count %d < 1", c)
		}
		if seen[c] {
			t.Errorf("duplicate count %d", c)
		}
		seen[c] = true
		if c <= n {
			inRange++
		}
	}
	// Strips realize all n counts in [1, n]; near-squares realize far
	// fewer — the paper's reduced freedom.
	if inRange >= n/2 {
		t.Errorf("%d realizable square counts ≤ %d — not sparse", inRange, n)
	}
	// The perfect-square counts 4, 16, 64 must be present (they come
	// from exact h×h working rectangles).
	for _, want := range []int{4, 16, 64} {
		if !seen[want] {
			t.Errorf("count %d missing", want)
		}
	}
}

func TestRectsCopied(t *testing.T) {
	ws, err := NewWorkingSet(32)
	if err != nil {
		t.Fatal(err)
	}
	a := ws.Rects()
	a[0] = Rect{H: 999, W: 999}
	b := ws.Rects()
	if b[0] == a[0] {
		t.Error("Rects() exposes internal storage")
	}
}
