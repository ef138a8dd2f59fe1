package partition

import (
	"fmt"
	"math"
	"sort"
)

// DefaultSquareTolerance is the paper's 5% rule (§3): a legal rectangle of
// area A is "sufficiently square-like" when its perimeter is within 5% of
// 4√A, the perimeter of the true square of the same area.
const DefaultSquareTolerance = 0.05

// WorkingSet is the collection of working rectangles for an n×n grid: for
// each achievable legal-rectangle area, the minimum-perimeter legal
// rectangle of that area, retained only when it passes the square-likeness
// tolerance (paper §3). Not every area has a working rectangle.
type WorkingSet struct {
	N         int
	Tolerance float64
	rects     []Rect // sorted by area, unique areas
}

// NewWorkingSet computes the working rectangles of an n×n grid with the
// paper's 5% tolerance.
func NewWorkingSet(n int) (*WorkingSet, error) {
	return NewWorkingSetTol(n, DefaultSquareTolerance)
}

// NewWorkingSetTol computes the working rectangles with an explicit
// square-likeness tolerance (fraction, e.g. 0.05).
func NewWorkingSetTol(n int, tol float64) (*WorkingSet, error) {
	if n < 1 {
		return nil, fmt.Errorf("partition: grid size n=%d must be positive", n)
	}
	if tol < 0 {
		return nil, fmt.Errorf("partition: tolerance %g must be non-negative", tol)
	}
	byArea := make(map[int]Rect)
	for _, r := range LegalRectangles(n) {
		best, ok := byArea[r.Area()]
		if !ok || r.Perimeter() < best.Perimeter() {
			byArea[r.Area()] = r
		}
	}
	rects := make([]Rect, 0, len(byArea))
	for _, r := range byArea {
		ideal := 4 * math.Sqrt(float64(r.Area()))
		if float64(r.Perimeter()) <= (1+tol)*ideal {
			rects = append(rects, r)
		}
	}
	sort.Slice(rects, func(a, b int) bool { return rects[a].Area() < rects[b].Area() })
	return &WorkingSet{N: n, Tolerance: tol, rects: rects}, nil
}

// Rects returns the working rectangles sorted by ascending area.
func (ws *WorkingSet) Rects() []Rect {
	out := make([]Rect, len(ws.rects))
	copy(out, ws.rects)
	return out
}

// Len returns the number of working rectangles.
func (ws *WorkingSet) Len() int { return len(ws.rects) }

// Nearest returns the working rectangle whose area is closest to the
// target area (ties broken toward the smaller area, matching a
// conservative processor count), and false when the set is empty or the
// target is not positive.
func (ws *WorkingSet) Nearest(targetArea float64) (Rect, bool) {
	if len(ws.rects) == 0 || targetArea <= 0 {
		return Rect{}, false
	}
	i := sort.Search(len(ws.rects), func(i int) bool {
		return float64(ws.rects[i].Area()) >= targetArea
	})
	switch i {
	case 0:
		return ws.rects[0], true
	case len(ws.rects):
		return ws.rects[len(ws.rects)-1], true
	}
	lo, hi := ws.rects[i-1], ws.rects[i]
	if targetArea-float64(lo.Area()) <= float64(hi.Area())-targetArea {
		return lo, true
	}
	return hi, true
}

// ApproxError holds the relative approximation error incurred by snapping
// an ideal square partition of area A to the nearest working rectangle
// (paper Fig. 6).
type ApproxError struct {
	TargetArea int     // ideal square area A
	Rect       Rect    // chosen working rectangle
	AreaErr    float64 // |rect area − A| / A                (Fig. 6a)
	PerimErr   float64 // |rect perimeter − 4√A| / 4√A        (Fig. 6b)
}

// Errors computes the Fig. 6 error pair for a single target area.
func (ws *WorkingSet) Errors(targetArea int) (ApproxError, bool) {
	r, ok := ws.Nearest(float64(targetArea))
	if !ok {
		return ApproxError{}, false
	}
	a := float64(targetArea)
	idealPerim := 4 * math.Sqrt(a)
	return ApproxError{
		TargetArea: targetArea,
		Rect:       r,
		AreaErr:    math.Abs(float64(r.Area())-a) / a,
		PerimErr:   math.Abs(float64(r.Perimeter())-idealPerim) / idealPerim,
	}, true
}

// ErrorSweep computes Fig. 6 errors for every even target area in
// [minArea, maxArea] (the paper plots every even A in [1024, 16384] on the
// 256×256 grid, i.e. decompositions using 4 to 64 processors).
func (ws *WorkingSet) ErrorSweep(minArea, maxArea int) []ApproxError {
	var out []ApproxError
	start := minArea
	if start%2 != 0 {
		start++
	}
	for a := start; a <= maxArea; a += 2 {
		if e, ok := ws.Errors(a); ok {
			out = append(out, e)
		}
	}
	return out
}

// RealizableProcCounts returns the sorted set of processor counts
// achievable with near-square decompositions: round(n/h)·(n/w) over the
// working rectangles. The paper's §3 remark — square partitions
// "reduc[e] substantially the number of feasible domain decompositions
// (and hence freedom in choosing the number of processors)" — is this
// set's sparseness relative to strips (which realize every count 1..n).
func (ws *WorkingSet) RealizableProcCounts() []int {
	seen := map[int]bool{}
	for _, r := range ws.rects {
		q := int(math.Round(float64(ws.N) / float64(r.H)))
		if q < 1 {
			q = 1
		}
		if q > ws.N {
			q = ws.N
		}
		seen[q*(ws.N/r.W)] = true
	}
	counts := make([]int, 0, len(seen))
	for c := range seen {
		counts = append(counts, c)
	}
	sort.Ints(counts)
	return counts
}
