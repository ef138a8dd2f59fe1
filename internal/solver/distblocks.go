package solver

import (
	"fmt"

	"optspeed/internal/grid"
	"optspeed/internal/partition"
)

// DistributedSolveBlocks runs the square-partition Jacobi iteration in
// message-passing style: a py×px grid of workers, each owning a private
// rows×cols block plus halo (grid.NewBlock), exchanging boundary values
// with its four neighbors over channels — the code path of the paper's
// square decomposition on a hypercube or mesh (§4). Each channel reuses
// one message buffer, so the iterations allocate nothing.
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
	}
	workers := py * px
	states := make([]*wstate, workers)
	for r := 0; r < py; r++ {
		for c := 0; c < px; c++ {
			rb, cb := rowBands[r], colBands[c]
			st := &wstate{rows: rb.Rows, cols: cb.Rows, row0: rb.Row0, col0: cb.Row0}
			if st.cur, err = grid.NewBlock(st.rows, st.cols, u.Halo); err != nil {
				return Result{}, err
			}
			if st.nxt, err = grid.NewBlock(st.rows, st.cols, u.Halo); err != nil {
				return Result{}, err
			}
			if f != nil {
				if st.rhs, err = grid.NewBlock(st.rows, st.cols, u.Halo); err != nil {
					return Result{}, err
				}
			}
			// Scatter: block plus full halo ring from the global grid.
			for li := -u.Halo; li < st.rows+u.Halo; li++ {
				for lj := -u.Halo; lj < st.cols+u.Halo; lj++ {
					v := u.At(st.row0+li, st.col0+lj)
					st.cur.Set(li, lj, v)
					st.nxt.Set(li, lj, v)
					gi, gj := st.row0+li, st.col0+lj
					if st.rhs != nil && gi >= 0 && gi < n && gj >= 0 && gj < n &&
						li >= 0 && li < st.rows && lj >= 0 && lj < st.cols {
						st.rhs.Set(li, lj, f.At(gi, gj))
					}
				}
			}
			states[r*px+c] = st
		}
	}

	// Links: one per directed edge. down/up between (r,c) and (r+1,c);
	// right/left between (r,c) and (r,c+1). Each link owns one message
	// buffer that travels back and forth: the sender takes it from ret,
	// fills it and sends it on msg; the receiver pastes it and hands it
	// back on ret. An exchange therefore allocates nothing, and a sender
	// never overwrites a buffer its neighbor is still reading.
	type link struct{ msg, ret chan []float64 }
	newLink := func(words int) link {
		l := link{msg: make(chan []float64, 1), ret: make(chan []float64, 1)}
		l.ret <- make([]float64, words)
		return l
	}
	downCh := make([]link, (py-1)*px) // (r,c) → (r+1,c)
	upCh := make([]link, (py-1)*px)
	rightCh := make([]link, py*(px-1)) // (r,c) → (r,c+1)
	leftCh := make([]link, py*(px-1))
	vEdge := func(r, c int) int { return r*px + c }     // edge (r,c)-(r+1,c)
	hEdge := func(r, c int) int { return r*(px-1) + c } // edge (r,c)-(r,c+1)
	for r := 0; r < py-1; r++ {
		for c := 0; c < px; c++ {
			words := rowHalo * (colBands[c].Rows + 2*u.Halo)
			downCh[vEdge(r, c)], upCh[vEdge(r, c)] = newLink(words), newLink(words)
		}
	}
	for r := 0; r < py; r++ {
		for c := 0; c < px-1; c++ {
			words := colHalo * (rowBands[r].Rows + 2*u.Halo)
			rightCh[hEdge(r, c)], leftCh[hEdge(r, c)] = newLink(words), newLink(words)
		}
	}

	// rowSpan is the backing-array span of rowHalo local rows starting
	// at r0, columns [-Halo, cols+Halo): whole rows are contiguous.
	rowSpan := func(st *wstate, r0 int) []float64 {
		w := st.cur.Stride()
		return st.cur.Data()[(r0+u.Halo)*w : (r0+u.Halo+rowHalo)*w]
	}
	// sendRows ships rowHalo rows starting at local row r0 and returns
	// the words sent.
	sendRows := func(l link, st *wstate, r0 int) int64 {
		buf := <-l.ret
		copy(buf, rowSpan(st, r0))
		l.msg <- buf
		return int64(len(buf))
	}
	recvRows := func(l link, st *wstate, r0 int) {
		buf := <-l.msg
		copy(rowSpan(st, r0), buf)
		l.ret <- buf
	}
	// sendCols ships colHalo columns starting at local column c0, rows
	// [-Halo, rows+Halo), and returns the words sent.
	sendCols := func(l link, st *wstate, c0 int) int64 {
		buf := <-l.ret
		k := 0
		for j := c0; j < c0+colHalo; j++ {
			for i := -u.Halo; i < st.rows+u.Halo; i++ {
				buf[k] = st.cur.At(i, j)
				k++
			}
		}
		l.msg <- buf
		return int64(len(buf))
	}
	recvCols := func(l link, st *wstate, c0 int) {
		buf := <-l.msg
		k := 0
		for j := c0; j < c0+colHalo; j++ {
			for i := -u.Halo; i < st.rows+u.Halo; i++ {
				st.cur.Set(i, j, buf[k])
				k++
			}
		}
		l.ret <- buf
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
						sent += sendRows(upCh[vEdge(r-1, c)], st, 0)
					}
					if r < py-1 {
						sent += sendRows(downCh[vEdge(r, c)], st, st.rows-rowHalo)
					}
					if r > 0 {
						recvRows(downCh[vEdge(r-1, c)], st, -rowHalo)
					}
					if r < py-1 {
						recvRows(upCh[vEdge(r, c)], st, st.rows)
					}
					// Phase 2: horizontal exchange (full height + fresh row halos).
					if c > 0 {
						sent += sendCols(leftCh[hEdge(r, c-1)], st, 0)
					}
					if c < px-1 {
						sent += sendCols(rightCh[hEdge(r, c)], st, st.cols-colHalo)
					}
					if c > 0 {
						recvCols(rightCh[hEdge(r, c-1)], st, -colHalo)
					}
					if c < px-1 {
						recvCols(leftCh[hEdge(r, c)], st, st.cols)
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
