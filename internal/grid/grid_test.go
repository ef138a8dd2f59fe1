package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewHalo(4, -1); err == nil {
		t.Error("negative halo accepted")
	}
	g, err := NewHalo(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Stride() != 4 {
		t.Errorf("halo-0 stride = %d", g.Stride())
	}
}

// TestBlockGeometry: a rows×cols block addresses rows and columns
// separately, and every whole-grid operation covers its rows×cols
// interior, not a square.
func TestBlockGeometry(t *testing.T) {
	if _, err := NewBlock(3, 0, 1); err == nil {
		t.Error("zero-column block accepted")
	}
	b, err := NewBlock(3, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.N != 3 || b.Cols() != 5 || b.Stride() != 9 || len(b.Data()) != 7*9 {
		t.Fatalf("3x5 block: N=%d Cols=%d Stride=%d len=%d", b.N, b.Cols(), b.Stride(), len(b.Data()))
	}
	if MustNew(4).Cols() != 4 {
		t.Error("a square grid's Cols is not N")
	}
	b.SetConstantBoundary(1)
	b.FillFunc(func(i, j int) float64 { return float64(10*i + j) })
	b.Set(4, 6, 2) // last ghost point
	if b.At(2, 4) != 24 || b.At(-2, 6) != 1 || b.At(4, 6) != 2 {
		t.Error("block points misaddressed")
	}
	if got := b.InteriorSum(); got != 3*(0+1+2+3+4)+5*(0+10+20) {
		t.Errorf("InteriorSum %g covers the wrong points", got)
	}
	c := b.Clone()
	if c.Cols() != 5 || c.MaxAbsDiff(b) != 0 {
		t.Error("Clone lost the block's geometry")
	}
	if err := c.CopyFrom(MustNew(3)); err == nil {
		t.Error("CopyFrom accepted a 3x3 grid into a 3x5 block")
	}
	other, _ := NewBlock(5, 3, 2)
	if err := b.Swap(other); err == nil {
		t.Error("Swap accepted a 5x3 block for a 3x5 one")
	}
	k := Laplace5(5)
	if err := SweepRegion(c, b, k, nil, 0, 3, 0, 5); err != nil {
		t.Errorf("full-block sweep rejected: %v", err)
	}
	if err := SweepRegion(c, b, k, nil, 0, 3, 0, 6); err == nil {
		t.Error("sweep past the block's last column accepted")
	}
	if err := SweepRegion(c, b, k, nil, 0, 4, 0, 5); err == nil {
		t.Error("sweep past the block's last row accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(0) did not panic")
		}
	}()
	MustNew(0)
}

func TestAtSetRoundTrip(t *testing.T) {
	g := MustNew(8)
	g.Set(3, 5, 42)
	if got := g.At(3, 5); got != 42 {
		t.Errorf("At(3,5) = %g", got)
	}
	// Ghost cells are addressable.
	g.Set(-1, 0, 7)
	g.Set(8, 9, 9)
	if g.At(-1, 0) != 7 || g.At(8, 9) != 9 {
		t.Error("ghost cells not addressable")
	}
}

func TestFillAndFillFunc(t *testing.T) {
	g := MustNew(5)
	g.Fill(2.5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if g.At(i, j) != 2.5 {
				t.Fatalf("Fill missed (%d,%d)", i, j)
			}
		}
	}
	// Fill must not touch the ghost ring.
	if g.At(-1, 2) != 0 {
		t.Error("Fill wrote into ghost ring")
	}
	g.FillFunc(func(i, j int) float64 { return float64(i*10 + j) })
	if g.At(3, 4) != 34 {
		t.Errorf("FillFunc value = %g", g.At(3, 4))
	}
}

func TestSetBoundary(t *testing.T) {
	g := MustNew(4)
	g.Fill(1)
	g.SetConstantBoundary(9)
	// All ghost points are 9; interior untouched.
	if g.At(-1, -1) != 9 || g.At(4, 4) != 9 || g.At(-2, 3) != 9 || g.At(2, 5) != 9 {
		t.Error("ghost ring not set")
	}
	if g.At(0, 0) != 1 || g.At(3, 3) != 1 {
		t.Error("interior overwritten")
	}
}

func TestCloneAndCopyFrom(t *testing.T) {
	g := MustNew(6)
	g.FillFunc(func(i, j int) float64 { return float64(i + j) })
	g.SetConstantBoundary(3)
	c := g.Clone()
	if c.MaxAbsDiff(g) != 0 {
		t.Error("clone differs")
	}
	c.Set(0, 0, 99)
	if g.At(0, 0) == 99 {
		t.Error("clone shares storage")
	}
	d := MustNew(6)
	if err := d.CopyFrom(g); err != nil {
		t.Fatal(err)
	}
	if d.MaxAbsDiff(g) != 0 {
		t.Error("CopyFrom differs")
	}
	e := MustNew(7)
	if err := e.CopyFrom(g); err == nil {
		t.Error("geometry mismatch accepted")
	}
}

func TestSwap(t *testing.T) {
	a, b := MustNew(4), MustNew(4)
	a.Fill(1)
	b.Fill(2)
	if err := a.Swap(b); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 2 || b.At(0, 0) != 1 {
		t.Error("Swap did not exchange data")
	}
	c := MustNew(5)
	if err := a.Swap(c); err == nil {
		t.Error("geometry mismatch accepted")
	}
}

func TestDiffNorms(t *testing.T) {
	a, b := MustNew(3), MustNew(3)
	a.Fill(1)
	b.Fill(1)
	b.Set(1, 1, 4)
	if got := a.MaxAbsDiff(b); got != 3 {
		t.Errorf("MaxAbsDiff = %g", got)
	}
	if got := a.SumSquaredDiff(b); got != 9 {
		t.Errorf("SumSquaredDiff = %g", got)
	}
	if got := a.SumSquaredDiffRegion(b, 0, 1, 0, 3); got != 0 {
		t.Errorf("region excluding change = %g", got)
	}
	if got := a.SumSquaredDiffRegion(b, 1, 2, 1, 2); got != 9 {
		t.Errorf("region with change = %g", got)
	}
}

// Property: SumSquaredDiff equals the sum of the four disjoint quadrant
// regions (region decomposition is exact).
func TestRegionDecompositionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func() bool {
		n := 2 + rng.Intn(20)
		a, b := MustNew(n), MustNew(n)
		a.FillFunc(func(i, j int) float64 { return rng.Float64() })
		b.FillFunc(func(i, j int) float64 { return rng.Float64() })
		mid := n / 2
		total := a.SumSquaredDiff(b)
		parts := a.SumSquaredDiffRegion(b, 0, mid, 0, mid) +
			a.SumSquaredDiffRegion(b, 0, mid, mid, n) +
			a.SumSquaredDiffRegion(b, mid, n, 0, mid) +
			a.SumSquaredDiffRegion(b, mid, n, mid, n)
		return math.Abs(total-parts) < 1e-9*(1+total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
