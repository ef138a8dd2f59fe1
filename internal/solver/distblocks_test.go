package solver

import (
	"runtime"
	"testing"

	"optspeed/internal/grid"
	"optspeed/internal/partition"
	"optspeed/internal/stencil"
)

// TestDistBlocksMatchesShared: the 2-D block message-passing solver is
// bit-identical to the shared-memory solver, including for the diagonal
// 9-point stencil (corners propagate via the two-phase exchange).
func TestDistBlocksMatchesShared(t *testing.T) {
	n := 36
	kernels := []grid.Kernel{grid.Laplace5(n), grid.Laplace9(n), grid.Star9(n)}
	grids := [][2]int{{1, 1}, {2, 2}, {2, 3}, {3, 3}, {4, 2}}
	for _, k := range kernels {
		for _, wg := range grids {
			uShared := grid.MustNew(n)
			uShared.SetConstantBoundary(1)
			if _, err := Solve(uShared, k, nil, Config{Workers: 1, MaxIterations: 20}); err != nil {
				t.Fatal(err)
			}
			uDist := grid.MustNew(n)
			uDist.SetConstantBoundary(1)
			res, err := DistributedSolveBlocks(uDist, k, nil, wg[0], wg[1], 20)
			if err != nil {
				t.Fatal(err)
			}
			if d := uShared.MaxAbsDiff(uDist); d != 0 {
				t.Errorf("%s %dx%d workers: diff %g", k.Stencil.Name(), wg[0], wg[1], d)
			}
			if res.PartitionsY*res.PartitionsX != res.Workers {
				t.Errorf("worker accounting: %+v", res)
			}
		}
	}
}

// TestDistBlocksAsymmetricStencil: a stencil whose row and column radii
// differ exchanges RowRadius rows vertically and ColRadius columns
// horizontally, clamps each worker-grid axis by its own radius, and
// stays bit-identical to the serial solver on strip (py×1) and block
// (py×px) worker grids, for the stencil and its transpose.
func TestDistBlocksAsymmetricStencil(t *testing.T) {
	tall := stencil.MustNew("tall", []stencil.Offset{
		{DI: -2, DJ: 0}, {DI: -1, DJ: 0}, {DI: 1, DJ: 0}, {DI: 2, DJ: 0},
		{DI: 0, DJ: -1}, {DI: 0, DJ: 1}, {DI: -1, DJ: -1}, {DI: 1, DJ: 1},
	}, 9)
	wide := stencil.MustNew("wide", []stencil.Offset{
		{DI: 0, DJ: -2}, {DI: 0, DJ: -1}, {DI: 0, DJ: 1}, {DI: 0, DJ: 2},
		{DI: -1, DJ: 0}, {DI: 1, DJ: 0}, {DI: -1, DJ: 1}, {DI: 1, DJ: -1},
	}, 9)
	const n, iters = 21, 12
	start := func() *grid.Grid {
		u := grid.MustNew(n)
		u.SetBoundary(func(i, j int) float64 { return float64(i-2*j) * 0.05 })
		u.FillFunc(func(i, j int) float64 { return float64((i*5+j*3)%7) * 0.1 })
		return u
	}
	for _, st := range []stencil.Stencil{tall, wide} {
		if st.RowRadius() == st.ColRadius() {
			t.Fatalf("%s: radii %d and %d are equal", st.Name(), st.RowRadius(), st.ColRadius())
		}
		k := grid.Averaging(st)
		serial := start()
		if _, err := Solve(serial, k, nil, Config{Workers: 1, MaxIterations: iters}); err != nil {
			t.Fatal(err)
		}
		for _, wg := range [][2]int{{1, 1}, {2, 1}, {5, 1}, {40, 1}, {2, 3}, {3, 2}, {4, 5}, {40, 40}} {
			u := start()
			res, err := DistributedSolveBlocks(u, k, nil, wg[0], wg[1], iters)
			if err != nil {
				t.Fatal(err)
			}
			if d := serial.MaxAbsDiff(u); d != 0 {
				t.Errorf("%s %dx%d: diff %g from serial", st.Name(), wg[0], wg[1], d)
			}
			py, px := min(wg[0], n/st.RowRadius()), min(wg[1], n/st.ColRadius())
			if res.PartitionsY != py || res.PartitionsX != px {
				t.Errorf("%s %dx%d: ran %dx%d, want %dx%d", st.Name(), wg[0], wg[1],
					res.PartitionsY, res.PartitionsX, py, px)
			}
			// Each internal row boundary ships RowRadius rows of the
			// full local width both ways; each internal column
			// boundary ships ColRadius columns of the full local height.
			var want int64
			if py > 1 {
				perEdge := int64(st.RowRadius()) * int64(n+2*px*u.Halo)
				want += 2 * int64(py-1) * perEdge
			}
			if px > 1 {
				perEdge := int64(st.ColRadius()) * int64(n+2*py*u.Halo)
				want += 2 * int64(px-1) * perEdge
			}
			if want *= iters; res.WordsSent != want {
				t.Errorf("%s %dx%d: WordsSent=%d, want %d", st.Name(), wg[0], wg[1], res.WordsSent, want)
			}
		}
	}
}

// TestDistBlocksWithRHS: source terms scatter correctly.
func TestDistBlocksWithRHS(t *testing.T) {
	n := 30
	uShared, k, f := testProblem(n)
	if _, err := Solve(uShared, k, f, Config{Workers: 1, MaxIterations: 30}); err != nil {
		t.Fatal(err)
	}
	uDist, _, f2 := testProblem(n)
	if _, err := DistributedSolveBlocks(uDist, k, f2, 3, 2, 30); err != nil {
		t.Fatal(err)
	}
	if d := uShared.MaxAbsDiff(uDist); d != 0 {
		t.Errorf("RHS block diff %g", d)
	}
}

// TestDistBlocksWordCount: the shipped volume matches the model — each
// internal vertical edge carries halo·(cols+2·halo) words per direction
// per iteration, each horizontal edge halo·(rows+2·halo).
func TestDistBlocksWordCount(t *testing.T) {
	n := 32
	k := grid.Laplace5(n)
	u := grid.MustNew(n)
	const iters = 5
	res, err := DistributedSolveBlocks(u, k, nil, 2, 2, iters)
	if err != nil {
		t.Fatal(err)
	}
	halo := 1
	// 2×2 grid of 16×16 blocks: 2 vertical edges, 2 horizontal edges,
	// 2 directions each.
	perIter := int64(2*2*halo*(16+2*u.Halo) + 2*2*halo*(16+2*u.Halo))
	if want := perIter * iters; res.WordsSent != want {
		t.Errorf("WordsSent = %d, want %d", res.WordsSent, want)
	}
}

// TestDistBlocksSquareVolumeBeatsStrips: at equal worker counts the
// block decomposition ships fewer words than strips — the paper's
// perimeter argument measured on real message traffic.
func TestDistBlocksSquareVolumeBeatsStrips(t *testing.T) {
	n := 64
	k := grid.Laplace5(n)
	const workers = 16
	const iters = 3
	uStrips := grid.MustNew(n)
	strips, err := DistributedSolveBlocks(uStrips, k, nil, workers, 1, iters)
	if err != nil {
		t.Fatal(err)
	}
	uBlocks := grid.MustNew(n)
	blocks, err := DistributedSolveBlocks(uBlocks, k, nil, 4, 4, iters)
	if err != nil {
		t.Fatal(err)
	}
	if blocks.WordsSent >= strips.WordsSent {
		t.Errorf("blocks shipped %d words, strips %d — expected fewer",
			blocks.WordsSent, strips.WordsSent)
	}
}

// TestDistBlocksLocalFootprint: each worker holds a rows×cols block
// plus its halo, and the exchange buffers are reused, so a solve on 8×1
// strips of n=512 allocates about two global grids' worth (the current
// and next block of every worker, 4.7 MB) however many iterations run.
func TestDistBlocksLocalFootprint(t *testing.T) {
	const n = 512
	k := grid.Laplace5(n)
	u := grid.MustNew(n)
	u.SetConstantBoundary(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := DistributedSolveBlocks(u, k, nil, 8, 1, 4); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 5<<20 {
		t.Errorf("8x1 workers on n=%d allocate %d B over 4 iterations, budget 5 MiB", n, got)
	}
}

func TestDistBlocksValidation(t *testing.T) {
	u := grid.MustNew(16)
	k := grid.Laplace5(16)
	if _, err := DistributedSolveBlocks(nil, k, nil, 2, 2, 1); err == nil {
		t.Error("nil grid accepted")
	}
	if _, err := DistributedSolveBlocks(u, k, nil, 2, 2, -1); err == nil {
		t.Error("negative iterations accepted")
	}
	if _, err := DistributedSolveBlocks(u, k, nil, 0, 2, 1); err == nil {
		t.Error("py=0 accepted")
	}
	thin, _ := grid.NewHalo(16, 1)
	if _, err := DistributedSolveBlocks(thin, grid.Star9(16), nil, 2, 2, 1); err == nil {
		t.Error("stencil radius exceeding halo accepted")
	}
	// Oversized worker grids clamp rather than fail.
	res, err := DistributedSolveBlocks(u, k, nil, 100, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.PartitionsY > 16 || res.PartitionsX > 16 {
		t.Errorf("clamping failed: %+v", res)
	}
}

// TestDistBlocksWordsVersusModel states exactly how the message-passing
// solver's WordsSent differs from the model's communication volume,
// partition.BoundaryWords × partitions × iterations, for every built-in
// stencil on strips (py×1) and square blocks. Two terms make up the
// difference, each k words deep (k perimeters):
//   - the model charges every partition a full set of cut sides, also
//     the sides on the domain boundary, where the solver ships nothing;
//   - the model leaves out corner words (§6.1 footnote), while every
//     solver message spans the partition side plus a halo width on each
//     end, 2·Halo words per perimeter more than the side.
func TestDistBlocksWordsVersusModel(t *testing.T) {
	const n, iters = 36, 3
	cases := []struct {
		shape  partition.Shape
		py, px int
		sides  int // cut sides the model charges each partition
		perK   int // the difference per perimeter, in words
	}{
		// 2 of 12 strip sides lie on the boundary: -2·36 words per
		// iteration; 10 messages carry 4 corner words each: +40.
		{partition.Strip, 6, 1, 2, iters * (-2*n + 10*2*grid.DefaultHalo)},
		// 16 of 64 block sides (9 words each) lie on the boundary:
		// -144 per iteration; 48 messages carry 4 corner words each: +192.
		{partition.Square, 4, 4, 4, iters * (-16*9 + 48*2*grid.DefaultHalo)},
	}
	for _, st := range stencil.Builtins() {
		for _, c := range cases {
			k := c.shape.Perimeters(st)
			if st.RowRadius() != k || st.ColRadius() != k {
				t.Fatalf("%s: radii %d/%d differ from the %d perimeters the model counts", st.Name(), st.RowRadius(), st.ColRadius(), k)
			}
			u := grid.MustNew(n)
			u.SetConstantBoundary(1)
			res, err := DistributedSolveBlocks(u, grid.Averaging(st), nil, c.py, c.px, iters)
			if err != nil {
				t.Fatal(err)
			}
			parts := c.py * c.px
			side := n / c.py // the square's side; strips ignore it
			model := int64(c.shape.BoundaryWords(st, n, side) * parts * iters)

			sideLen := n
			if c.shape == partition.Square {
				sideLen = side
			}
			messages := 2 * ((c.py-1)*c.px + c.py*(c.px-1)) // each cut edge, both ways
			boundary := c.sides*parts - messages
			diff := int64(iters * k * (messages*2*u.Halo - boundary*sideLen))
			if diff != int64(k*c.perK) {
				t.Fatalf("%s %v: difference formula %d, stated %d", st.Name(), c.shape, diff, k*c.perK)
			}
			if got := res.WordsSent - model; got != diff {
				t.Errorf("%s %v %dx%d: WordsSent %d, model %d: difference %d, want %d",
					st.Name(), c.shape, c.py, c.px, res.WordsSent, model, got, diff)
			}
		}
	}
}
