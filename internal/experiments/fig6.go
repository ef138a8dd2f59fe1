// Package experiments regenerates every table and figure in the paper's
// evaluation, plus the validation and ablation studies that support it
// (experiments F6, F7, F8, T1, X1-X6, V1-V2, A1-A2). Each experiment is
// a pure function returning structured rows, with a renderer producing
// the text form the cmd/paperfigs tool prints.
package experiments

import (
	"fmt"
	"io"

	"optspeed/internal/partition"
	"optspeed/internal/tab"
)

// Fig6Row is one bar of paper Fig. 6: the approximation error incurred
// snapping an ideal square partition area to the nearest working
// rectangle on an n×n grid.
type Fig6Row struct {
	TargetArea int
	Rect       partition.Rect
	AreaErr    float64
	PerimErr   float64
}

// Fig6Result bundles the sweep with its summary statistics.
type Fig6Result struct {
	N                    int
	Rows                 []Fig6Row
	MaxAreaErr           float64
	MaxPerimErr          float64
	FracAreaUnder3Pct    float64
	FracPerimUnder6Pct   float64
	WorkingRectangles    int
	MinTarget, MaxTarget int

	// The §3 freedom remark quantified: processor counts in [1, n]
	// realizable by near-square decompositions, versus the n counts
	// strips realize.
	RealizableSquareCounts int
}

// Fig6 reproduces paper Fig. 6 (a: relative area error, b: relative
// perimeter error) for an n×n grid over even target areas in
// [n²/64, n²/4] — decompositions using 4 to 64 processors, the paper's
// range for n = 256.
func Fig6(n int) (Fig6Result, error) {
	ws, err := partition.NewWorkingSet(n)
	if err != nil {
		return Fig6Result{}, err
	}
	lo, hi := n*n/64, n*n/4
	errs := ws.ErrorSweep(lo, hi)
	res := Fig6Result{
		N:                 n,
		WorkingRectangles: ws.Len(),
		MinTarget:         lo,
		MaxTarget:         hi,
	}
	for _, c := range ws.RealizableProcCounts() {
		if c <= n {
			res.RealizableSquareCounts++
		}
	}
	var okA, okP int
	for _, e := range errs {
		res.Rows = append(res.Rows, Fig6Row{
			TargetArea: e.TargetArea,
			Rect:       e.Rect,
			AreaErr:    e.AreaErr,
			PerimErr:   e.PerimErr,
		})
		if e.AreaErr > res.MaxAreaErr {
			res.MaxAreaErr = e.AreaErr
		}
		if e.PerimErr > res.MaxPerimErr {
			res.MaxPerimErr = e.PerimErr
		}
		if e.AreaErr < 0.03 {
			okA++
		}
		if e.PerimErr < 0.06 {
			okP++
		}
	}
	if len(errs) > 0 {
		res.FracAreaUnder3Pct = float64(okA) / float64(len(errs))
		res.FracPerimUnder6Pct = float64(okP) / float64(len(errs))
	}
	return res, nil
}

// RenderFig6 writes the summary and a decimated bar listing (every
// `stride`-th sample) in text form.
func RenderFig6(w io.Writer, res Fig6Result, stride int) error {
	if stride < 1 {
		stride = 1
	}
	t := tab.New(
		fmt.Sprintf("Fig. 6 — working-rectangle approximation error, %dx%d grid (A in [%d, %d])",
			res.N, res.N, res.MinTarget, res.MaxTarget),
		"A", "rect", "area err", "perim err")
	for i, r := range res.Rows {
		if i%stride != 0 {
			continue
		}
		t.AddRow(r.TargetArea, r.Rect.String(), r.AreaErr, r.PerimErr)
	}
	if err := t.WriteText(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w,
		"summary: %d working rects; max area err %.4f (%.0f%% of samples < 3%%); max perim err %.4f (%.0f%% < 6%%)\n"+
			"freedom (§3): near-square decompositions realize %d processor counts in [1, %d]; strips realize all %d\n\n",
		res.WorkingRectangles, res.MaxAreaErr, 100*res.FracAreaUnder3Pct,
		res.MaxPerimErr, 100*res.FracPerimUnder6Pct,
		res.RealizableSquareCounts, res.N, res.N)
	return err
}
