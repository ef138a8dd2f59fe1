package solver

import (
	"fmt"

	"optspeed/internal/grid"
	"optspeed/internal/partition"
)

// DistributedSolveBlocks runs the square-partition Jacobi iteration in
// message-passing style: a py×px grid of workers, each owning a private
// block plus halo, exchanging boundary values with its four neighbors
// over channels — the code path of the paper's square decomposition on
// a hypercube or mesh (§4).
//
// The halo exchange is two-phase: vertical neighbors first exchange the
// stencil's RowRadius boundary rows, spanning the full local width
// including column halos; horizontal neighbors then exchange its
// ColRadius boundary columns, spanning the full local height including
// the freshly filled halo rows. Corner values therefore propagate
// through two hops, which is exactly what diagonal stencils (the 9-point
// box) need; no diagonal channels exist, matching the machines the paper
// considers. A py×1 worker grid is the strip decomposition: each worker
// owns a band of whole rows and only the vertical exchange runs.
//
// py is clamped to n/RowRadius and px to n/ColRadius (and both to n),
// so every block is at least as deep as the halo it ships; otherwise an
// exchange would forward a neighbor's stale halo instead of owned data.
//
// Results are bit-identical to the shared-memory solver.
func DistributedSolveBlocks(u *grid.Grid, k grid.Kernel, f *grid.Grid, py, px, iterations int) (Result, error) {
	if u == nil {
		return Result{}, fmt.Errorf("solver: nil grid")
	}
	if iterations < 0 {
		return Result{}, fmt.Errorf("solver: negative iterations %d", iterations)
	}
	if halo := k.Stencil.ChebyshevRadius(); halo > u.Halo {
		return Result{}, fmt.Errorf("solver: stencil radius %d exceeds grid halo %d", halo, u.Halo)
	}
	if py < 1 || px < 1 {
		return Result{}, fmt.Errorf("solver: worker grid %dx%d invalid", py, px)
	}
	n := u.N
	rowHalo, colHalo := k.Stencil.RowRadius(), k.Stencil.ColRadius()
	clamp := func(v, halo int) int {
		if halo > 0 && v > n/halo {
			v = n / halo
		}
		if v > n {
			v = n
		}
		if v < 1 {
			v = 1
		}
		return v
	}
	py, px = clamp(py, rowHalo), clamp(px, colHalo)

	rowBands, err := partition.DecomposeStrips(n, py)
	if err != nil {
		return Result{}, err
	}
	colBands, err := partition.DecomposeStrips(n, px)
	if err != nil {
		return Result{}, err
	}

	type wstate struct {
		rows, cols int // block extent
		row0, col0 int // global origin
		cur, nxt   *grid.Grid
		rhs        *grid.Grid
		maxDim     int
	}
	workers := py * px
	states := make([]*wstate, workers)
	for r := 0; r < py; r++ {
		for c := 0; c < px; c++ {
			rb, cb := rowBands[r], colBands[c]
			dim := rb.Rows
			if cb.Rows > dim {
				dim = cb.Rows
			}
			local, err := grid.NewHalo(dim, u.Halo)
			if err != nil {
				return Result{}, err
			}
			localNext, err := grid.NewHalo(dim, u.Halo)
			if err != nil {
				return Result{}, err
			}
			var localRHS *grid.Grid
			if f != nil {
				localRHS, err = grid.NewHalo(dim, u.Halo)
				if err != nil {
					return Result{}, err
				}
			}
			st := &wstate{
				rows: rb.Rows, cols: cb.Rows,
				row0: rb.Row0, col0: cb.Row0,
				cur: local, nxt: localNext, rhs: localRHS,
				maxDim: dim,
			}
			// Scatter: block plus full halo ring from the global grid.
			for li := -u.Halo; li < st.rows+u.Halo; li++ {
				for lj := -u.Halo; lj < st.cols+u.Halo; lj++ {
					v := u.At(st.row0+li, st.col0+lj)
					st.cur.Set(li, lj, v)
					st.nxt.Set(li, lj, v)
					gi, gj := st.row0+li, st.col0+lj
					if localRHS != nil && gi >= 0 && gi < n && gj >= 0 && gj < n &&
						li >= 0 && li < st.rows && lj >= 0 && lj < st.cols {
						localRHS.Set(li, lj, f.At(gi, gj))
					}
				}
			}
			states[r*px+c] = st
		}
	}

	// Channels: one per directed edge. rows[r][c] between (r,c) and
	// (r+1,c); cols between (r,c) and (r,c+1).
	type slab [][]float64
	downCh := make([]chan slab, (py-1)*px) // (r,c) → (r+1,c)
	upCh := make([]chan slab, (py-1)*px)
	rightCh := make([]chan slab, py*(px-1)) // (r,c) → (r,c+1)
	leftCh := make([]chan slab, py*(px-1))
	for i := range downCh {
		downCh[i] = make(chan slab, 1)
		upCh[i] = make(chan slab, 1)
	}
	for i := range rightCh {
		rightCh[i] = make(chan slab, 1)
		leftCh[i] = make(chan slab, 1)
	}
	vEdge := func(r, c int) int { return r*px + c }     // edge (r,c)-(r+1,c)
	hEdge := func(r, c int) int { return r*(px-1) + c } // edge (r,c)-(r,c+1)

	// copyRows extracts `count` rows starting at local row r0, columns
	// [-haloW, cols+haloW).
	copyRows := func(st *wstate, r0, count int) slab {
		out := make(slab, count)
		for i := 0; i < count; i++ {
			row := make([]float64, st.cols+2*u.Halo)
			for j := -u.Halo; j < st.cols+u.Halo; j++ {
				row[j+u.Halo] = st.cur.At(r0+i, j)
			}
			out[i] = row
		}
		return out
	}
	pasteRows := func(st *wstate, r0 int, data slab) {
		for i, row := range data {
			for idx, v := range row {
				st.cur.Set(r0+i, idx-u.Halo, v)
			}
		}
	}
	copyCols := func(st *wstate, c0, count int) slab {
		out := make(slab, count)
		for j := 0; j < count; j++ {
			col := make([]float64, st.rows+2*u.Halo)
			for i := -u.Halo; i < st.rows+u.Halo; i++ {
				col[i+u.Halo] = st.cur.At(i, c0+j)
			}
			out[j] = col
		}
		return out
	}
	pasteCols := func(st *wstate, c0 int, data slab) {
		for j, col := range data {
			for idx, v := range col {
				st.cur.Set(idx-u.Halo, c0+j, v)
			}
		}
	}

	errCh := make(chan error, workers)
	doneCh := make(chan int64, workers)
	for r := 0; r < py; r++ {
		for c := 0; c < px; c++ {
			go func(r, c int) {
				st := states[r*px+c]
				var sent int64
				for iter := 0; iter < iterations; iter++ {
					// Phase 1: vertical exchange (full width + col halos).
					if r > 0 {
						upCh[vEdge(r-1, c)] <- copyRows(st, 0, rowHalo)
						sent += int64(rowHalo) * int64(st.cols+2*u.Halo)
					}
					if r < py-1 {
						downCh[vEdge(r, c)] <- copyRows(st, st.rows-rowHalo, rowHalo)
						sent += int64(rowHalo) * int64(st.cols+2*u.Halo)
					}
					if r > 0 {
						pasteRows(st, -rowHalo, <-downCh[vEdge(r-1, c)])
					}
					if r < py-1 {
						pasteRows(st, st.rows, <-upCh[vEdge(r, c)])
					}
					// Phase 2: horizontal exchange (full height + fresh row halos).
					if c > 0 {
						leftCh[hEdge(r, c-1)] <- copyCols(st, 0, colHalo)
						sent += int64(colHalo) * int64(st.rows+2*u.Halo)
					}
					if c < px-1 {
						rightCh[hEdge(r, c)] <- copyCols(st, st.cols-colHalo, colHalo)
						sent += int64(colHalo) * int64(st.rows+2*u.Halo)
					}
					if c > 0 {
						pasteCols(st, -colHalo, <-rightCh[hEdge(r, c-1)])
					}
					if c < px-1 {
						pasteCols(st, st.cols, <-leftCh[hEdge(r, c)])
					}
					// Local sweep.
					if err := grid.SweepRegion(st.nxt, st.cur, k, st.rhs, 0, st.rows, 0, st.cols); err != nil {
						errCh <- err
						return
					}
					st.cur, st.nxt = st.nxt, st.cur
				}
				doneCh <- sent
			}(r, c)
		}
	}
	var totalSent int64
	for w := 0; w < workers; w++ {
		select {
		case err := <-errCh:
			return Result{}, err
		case s := <-doneCh:
			totalSent += s
		}
	}

	// Gather.
	for _, st := range states {
		for li := 0; li < st.rows; li++ {
			for lj := 0; lj < st.cols; lj++ {
				u.Set(st.row0+li, st.col0+lj, st.cur.At(li, lj))
			}
		}
	}
	return Result{
		Iterations:  iterations,
		Workers:     workers,
		PartitionsX: px,
		PartitionsY: py,
		WordsSent:   totalSent,
	}, nil
}
