package stencil

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	valid := []Offset{{-1, 0}, {1, 0}}
	cases := []struct {
		name    string
		offsets []Offset
		flops   float64
		wantErr bool
	}{
		{"ok", valid, 3, false},
		{"empty", nil, 3, true},
		{"center", []Offset{{0, 0}}, 3, true},
		{"duplicate", []Offset{{1, 0}, {1, 0}}, 3, true},
		{"zero flops", valid, 0, true},
		{"negative flops", valid, -1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New("t", tc.offsets, tc.flops)
			if (err != nil) != tc.wantErr {
				t.Fatalf("New(%v, %g): err=%v, wantErr=%v", tc.offsets, tc.flops, err, tc.wantErr)
			}
		})
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with invalid stencil did not panic")
		}
	}()
	MustNew("bad", nil, 1)
}

func TestBuiltinsGeometry(t *testing.T) {
	cases := []struct {
		s          Stencil
		points     int
		rowRadius  int
		chebRadius int
		diagonal   bool
	}{
		{FivePoint, 5, 1, 1, false},
		{NinePoint, 9, 1, 1, true},
		{NineStar, 9, 2, 2, false},
		{ThirteenPoint, 13, 2, 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.s.Name(), func(t *testing.T) {
			if got := tc.s.Points(); got != tc.points {
				t.Errorf("Points() = %d, want %d", got, tc.points)
			}
			if got := tc.s.RowRadius(); got != tc.rowRadius {
				t.Errorf("RowRadius() = %d, want %d", got, tc.rowRadius)
			}
			if got := tc.s.ChebyshevRadius(); got != tc.chebRadius {
				t.Errorf("ChebyshevRadius() = %d, want %d", got, tc.chebRadius)
			}
			if got := tc.s.HasDiagonal(); got != tc.diagonal {
				t.Errorf("HasDiagonal() = %v, want %v", got, tc.diagonal)
			}
			if !tc.s.Valid() {
				t.Error("builtin stencil is not Valid")
			}
		})
	}
}

// TestBuiltinFlops pins the calibrated E(S) values (internal/core/machine.go):
// the Fig. 7 anchors need E(5-point) = 5 and E(9-point) = 10.
func TestBuiltinFlops(t *testing.T) {
	if FivePoint.Flops() != 5 {
		t.Errorf("E(5-point) = %g, want 5", FivePoint.Flops())
	}
	if NinePoint.Flops() != 10 {
		t.Errorf("E(9-point) = %g, want 10", NinePoint.Flops())
	}
	if NineStar.Flops() != 10 {
		t.Errorf("E(9-star) = %g, want 10", NineStar.Flops())
	}
	if ThirteenPoint.Flops() != 14 {
		t.Errorf("E(13-point) = %g, want 14", ThirteenPoint.Flops())
	}
}

func TestWithFlops(t *testing.T) {
	s := FivePoint.WithFlops(7)
	if s.Flops() != 7 {
		t.Fatalf("WithFlops(7).Flops() = %g", s.Flops())
	}
	if FivePoint.Flops() != 5 {
		t.Fatal("WithFlops mutated the original")
	}
	if s.Points() != FivePoint.Points() {
		t.Fatal("WithFlops changed geometry")
	}

	// Copies share a definition, so a WithFlops result must get its own:
	// two results from one base stay independent of each other and of
	// the built-in, and ByName still hands out the unchanged built-in.
	u := FivePoint.WithFlops(9)
	if s.Flops() != 7 || u.Flops() != 9 || FivePoint.Flops() != 5 {
		t.Fatalf("WithFlops results alias: s=%g u=%g FivePoint=%g", s.Flops(), u.Flops(), FivePoint.Flops())
	}
	if s.Equal(u) || s.Equal(FivePoint) || u.Equal(FivePoint) {
		t.Fatal("WithFlops result Equal to a stencil with different flops")
	}
	if !FivePoint.WithFlops(5).Equal(FivePoint) {
		t.Fatal("WithFlops with the same flops is not Equal to its base")
	}
	if got, ok := ByName("5-point"); !ok || !got.Equal(FivePoint) || got.Flops() != 5 {
		t.Fatalf("ByName(5-point) = %v after WithFlops, want the unchanged built-in", got)
	}
	if s.Name() != FivePoint.Name() || s.RowRadius() != FivePoint.RowRadius() || s.Render() != FivePoint.Render() {
		t.Fatal("WithFlops changed name or geometry")
	}
}

// TestZeroStencilIsInvalidAndSafe calls every exported method on the
// zero Stencil, which has no definition behind it: none may panic, and
// it must read as an empty, invalid stencil.
func TestZeroStencilIsInvalidAndSafe(t *testing.T) {
	var z Stencil
	if z.Name() != "" || len(z.Offsets()) != 0 || z.Points() != 1 || z.Flops() != 0 {
		t.Errorf("zero stencil: Name=%q Offsets=%v Points=%d Flops=%g", z.Name(), z.Offsets(), z.Points(), z.Flops())
	}
	if z.RowRadius() != 0 || z.ColRadius() != 0 || z.ChebyshevRadius() != 0 || z.HasDiagonal() {
		t.Errorf("zero stencil has geometry: row=%d col=%d cheb=%d diag=%t",
			z.RowRadius(), z.ColRadius(), z.ChebyshevRadius(), z.HasDiagonal())
	}
	if z.Valid() {
		t.Error("zero stencil is Valid")
	}
	if got := z.String(); got != "invalid stencil" {
		t.Errorf("zero String() = %q, want %q", got, "invalid stencil")
	}
	if got := z.Render(); got != "o\n" {
		t.Errorf("zero Render() = %q, want %q", got, "o\n")
	}
	if !z.Equal(Stencil{}) {
		t.Error("zero stencil not Equal to itself")
	}
	if z.Equal(FivePoint) || FivePoint.Equal(z) {
		t.Error("zero stencil Equal to FivePoint")
	}
	if w := z.WithFlops(3); w.Flops() != 3 || w.Valid() || z.Flops() != 0 {
		t.Errorf("zero WithFlops(3): got flops %g valid %t, zero now has flops %g", w.Flops(), w.Valid(), z.Flops())
	}
}

func TestWithFlopsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WithFlops(0) did not panic")
		}
	}()
	FivePoint.WithFlops(0)
}

func TestOffsetsCanonicalAndCopied(t *testing.T) {
	a := FivePoint.Offsets()
	b := FivePoint.Offsets()
	for i := 1; i < len(a); i++ {
		prev, cur := a[i-1], a[i]
		if prev.DI > cur.DI || (prev.DI == cur.DI && prev.DJ >= cur.DJ) {
			t.Fatalf("offsets not in canonical order: %v", a)
		}
	}
	a[0] = Offset{9, 9}
	if b[0] == a[0] {
		t.Fatal("Offsets() returned shared backing storage")
	}
}

func TestCanonicalOrderIndependentOfInput(t *testing.T) {
	s1 := MustNew("x", []Offset{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}, 5)
	s2 := MustNew("x", []Offset{{0, -1}, {0, 1}, {-1, 0}, {1, 0}}, 5)
	if !s1.Equal(s2) {
		t.Fatalf("stencils with same offsets in different order not Equal:\n%v\n%v",
			s1.Offsets(), s2.Offsets())
	}
}

func TestEqual(t *testing.T) {
	if !FivePoint.Equal(FivePoint) {
		t.Error("FivePoint != FivePoint")
	}
	if FivePoint.Equal(NinePoint) {
		t.Error("FivePoint == NinePoint")
	}
	if FivePoint.Equal(FivePoint.WithFlops(6)) {
		t.Error("Equal ignores flops")
	}
	renamed := MustNew("other", FivePoint.Offsets(), FivePoint.Flops())
	if FivePoint.Equal(renamed) {
		t.Error("Equal ignores name")
	}
}

func TestByName(t *testing.T) {
	for _, want := range Builtins() {
		got, ok := ByName(want.Name())
		if !ok || !got.Equal(want) {
			t.Errorf("ByName(%q) = %v, %v", want.Name(), got, ok)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) found a stencil")
	}
}

func TestRender(t *testing.T) {
	r := FivePoint.Render()
	want := ". * .\n* o *\n. * .\n"
	if r != want {
		t.Errorf("FivePoint.Render() =\n%s\nwant\n%s", r, want)
	}
	if !strings.Contains(NineStar.Render(), "o") {
		t.Error("NineStar.Render() missing center")
	}
	lines := strings.Split(strings.TrimRight(NineStar.Render(), "\n"), "\n")
	if len(lines) != 5 {
		t.Errorf("NineStar.Render() has %d rows, want 5", len(lines))
	}
}

func TestStringForms(t *testing.T) {
	if got := FivePoint.String(); !strings.Contains(got, "5-point") {
		t.Errorf("String() = %q", got)
	}
	var zero Stencil
	if got := zero.String(); got != "invalid stencil" {
		t.Errorf("zero String() = %q", got)
	}
	if zero.Valid() {
		t.Error("zero stencil is Valid")
	}
}

// randomOffsets draws a non-empty duplicate-free offset set avoiding the
// center.
func randomOffsets(rng *rand.Rand) []Offset {
	n := 1 + rng.Intn(12)
	seen := map[Offset]bool{}
	var out []Offset
	for len(out) < n {
		o := Offset{rng.Intn(7) - 3, rng.Intn(7) - 3}
		if (o.DI == 0 && o.DJ == 0) || seen[o] {
			continue
		}
		seen[o] = true
		out = append(out, o)
	}
	return out
}

// Property: radii bound every offset, and ChebyshevRadius is the max of
// row/col radii.
func TestRadiiProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		offs := randomOffsets(rng)
		s, err := New("q", offs, 1)
		if err != nil {
			return false
		}
		maxRow, maxCol := 0, 0
		for _, o := range offs {
			if a := abs(o.DI); a > maxRow {
				maxRow = a
			}
			if a := abs(o.DJ); a > maxCol {
				maxCol = a
			}
		}
		cheb := maxRow
		if maxCol > cheb {
			cheb = maxCol
		}
		return s.RowRadius() == maxRow && s.ColRadius() == maxCol && s.ChebyshevRadius() == cheb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Points() = len(offsets)+1 and Offsets round-trips through New.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		offs := randomOffsets(rng)
		s, err := New("q", offs, 2)
		if err != nil {
			return false
		}
		s2, err := New("q", s.Offsets(), 2)
		if err != nil {
			return false
		}
		return s.Equal(s2) && s.Points() == len(offs)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
