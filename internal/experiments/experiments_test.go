package experiments

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optspeed/internal/stencil"
)

func TestFig6Summary(t *testing.T) {
	res, err := Fig6(256)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	if res.FracAreaUnder3Pct < 0.85 {
		t.Errorf("area <3%% fraction %.2f", res.FracAreaUnder3Pct)
	}
	if res.FracPerimUnder6Pct < 0.85 {
		t.Errorf("perim <6%% fraction %.2f", res.FracPerimUnder6Pct)
	}
	if res.MaxAreaErr >= 0.10 || res.MaxPerimErr >= 0.10 {
		t.Errorf("max errors %.3f/%.3f", res.MaxAreaErr, res.MaxPerimErr)
	}
	var buf bytes.Buffer
	if err := RenderFig6(&buf, res, 100); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig. 6") {
		t.Error("render missing title")
	}
	if _, err := Fig6(0); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestFig7CurvesMonotone(t *testing.T) {
	res, err := Fig7(stencil.FivePoint, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 15 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	// Assertions start at N = 5: below that the N=2 threshold (which
	// competes against the communication-free single processor) and the
	// √N vs N² curve crossing make the small-N points non-comparable —
	// the paper's Fig. 7 axis starts at N = 4.
	for i := 1; i < len(res.Rows); i++ {
		prev, cur := res.Rows[i-1], res.Rows[i]
		if cur.Procs < 5 {
			continue
		}
		if cur.NSyncStrip < prev.NSyncStrip || cur.NAsyncStrip < prev.NAsyncStrip ||
			cur.NSyncSquare < prev.NSyncSquare {
			t.Errorf("min grid not monotone at N=%d", cur.Procs)
		}
		// Curve ordering: sync strip ≥ async strip ≥ sync square.
		if !(cur.NSyncStrip >= cur.NAsyncStrip && cur.NAsyncStrip >= cur.NSyncSquare) {
			t.Errorf("curve ordering violated at N=%d: %d %d %d",
				cur.Procs, cur.NSyncStrip, cur.NAsyncStrip, cur.NSyncSquare)
		}
	}
	var buf bytes.Buffer
	if err := RenderFig7(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig. 7") {
		t.Error("render missing title")
	}
}

func TestFig7Anchors(t *testing.T) {
	a5, err := Fig7Anchor(stencil.FivePoint)
	if err != nil {
		t.Fatal(err)
	}
	if a5 != 14 {
		t.Errorf("5-point anchor %d, want 14", a5)
	}
	a9, err := Fig7Anchor(stencil.NinePoint)
	if err != nil {
		t.Fatal(err)
	}
	if a9 != 22 {
		t.Errorf("9-point anchor %d, want 22", a9)
	}
}

func TestFig8Shapes(t *testing.T) {
	res, err := Fig8(stencil.FivePoint)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	for i, r := range res.Rows {
		// Squares dominate strips in both processors and speedup.
		if r.SpeedupSquares <= r.SpeedupStrips {
			t.Errorf("n=%d: square speedup %.2f ≤ strip %.2f", r.N, r.SpeedupSquares, r.SpeedupStrips)
		}
		if r.ProcsSquares <= r.ProcsStrips {
			t.Errorf("n=%d: square procs %d ≤ strip %d", r.N, r.ProcsSquares, r.ProcsStrips)
		}
		if i > 0 {
			prev := res.Rows[i-1]
			if r.SpeedupSquares <= prev.SpeedupSquares || r.SpeedupStrips <= prev.SpeedupStrips {
				t.Errorf("speedup not increasing at n=%d", r.N)
			}
		}
	}
	// The scaling laws across the panel: squares ∝ (n²)^{1/3} means
	// speedup quadruples per 64× points... check endpoint ratio.
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	ratio := last.SpeedupSquares / first.SpeedupSquares
	wantRatio := math.Pow(float64(last.N*last.N)/float64(first.N*first.N), 1.0/3)
	if math.Abs(ratio-wantRatio)/wantRatio > 0.1 {
		t.Errorf("square speedup growth %.2f, want ≈ %.2f", ratio, wantRatio)
	}
	var buf bytes.Buffer
	if err := RenderFig8(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig. 8") {
		t.Error("render missing title")
	}
}

func TestTable1Eval(t *testing.T) {
	res := Table1(stencil.FivePoint, []int{256, 1024})
	if len(res.Rows) != 4 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		vals := res.Values[r.Arch]
		if len(vals) != 2 {
			t.Fatalf("%s has %d values", r.Arch, len(vals))
		}
		if vals[1] <= vals[0] {
			t.Errorf("%s speedup not increasing in n", r.Arch)
		}
	}
	var buf bytes.Buffer
	if err := RenderTable1(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table I") {
		t.Error("render missing title")
	}
}

func TestInTextValues(t *testing.T) {
	res, err := InText()
	if err != nil {
		t.Fatal(err)
	}
	close := func(name string, got, want, tol float64) {
		t.Helper()
		if math.Abs(got-want) > tol {
			t.Errorf("%s = %.4f, want %.4f", name, got, want)
		}
	}
	close("strip 256 rw", res.StripSpeedup256, 3.2, 0.05)
	close("strip 1024 rw", res.StripSpeedup1024, 8.0, 0.05)
	close("square 256 rw", res.SquareSpeedup256, 16.0/3, 0.05)
	close("square 1024 rw", res.SquareSpeedup1024, 16.0/1.5, 0.05)
	close("strip 256 ro", res.ROStripSpeedup256, 16.0/3, 0.05)
	close("strip 1024 ro", res.ROStripSpeedup1024, 16.0/1.5, 0.05)
	close("bus leverage sq", res.SquareBusLeverage, math.Pow(2, -2.0/3), 0.01)
	close("flops leverage sq", res.SquareFlopsLeverage, math.Pow(2, -1.0/3), 0.01)
	close("bus leverage strip", res.StripBusLeverage, 1/math.Sqrt2, 0.01)
	close("flops leverage strip", res.StripFlopsLeverage, 1/math.Sqrt2, 0.01)
	close("async strips", res.StripAsyncRatio, math.Sqrt2, 0.02)
	close("async squares", res.SquareAsyncRatio, 1.5, 0.02)
	close("full async gain", res.SquareFullAsyncGain, math.Cbrt(2), 0.02)
	close("comm/comp", res.CommTwiceComp, 2, 0.01)
	if res.FlexInteriorAt30 {
		t.Error("FLEX interior optimum reported possible")
	}
	var buf bytes.Buffer
	if err := RenderInText(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "In-text") {
		t.Error("render missing title")
	}
}

func TestScalingOrders(t *testing.T) {
	rows, err := Scaling(stencil.FivePoint, []int{256, 512, 1024, 2048}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		var want, tol float64
		switch {
		case r.Arch == "hypercube" || r.Arch == "mesh":
			want, tol = 1.0, 0.02
		case r.Arch == "banyan" && r.Shape == "square":
			want, tol = 0.91, 0.06
		case r.Arch == "banyan" && r.Shape == "strip":
			want, tol = 0.45, 0.08 // Θ(n/log n) ⇒ γ just below 1/2
		case r.Shape == "square":
			want, tol = 1.0/3, 0.03
		default:
			want, tol = 0.25, 0.03
		}
		if math.Abs(r.Exponent-want) > tol {
			t.Errorf("%s/%s: γ = %.3f, want %.3f ± %.3f", r.Arch, r.Shape, r.Exponent, want, tol)
		}
	}
	var buf bytes.Buffer
	if err := RenderScaling(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if err := RenderScaling(&buf, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidateExperiment(t *testing.T) {
	res, err := Validate(128)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxRelErr > 0.05 {
		t.Errorf("max rel err %.4f", res.MaxRelErr)
	}
	var buf bytes.Buffer
	if err := RenderValidation(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "V1") {
		t.Error("render missing title")
	}
}

func TestAblations(t *testing.T) {
	cb, err := AblateCB(256, []float64{0, 100, 2000})
	if err != nil {
		t.Fatal(err)
	}
	// c/b = 0 admits an interior optimum; c/b = 2000 on ≤1024 procs
	// forces an extremal allocation (all or one).
	if !cb[0].Interior {
		t.Error("c/b=0 not interior")
	}
	if cb[2].Interior {
		t.Error("c/b=2000 interior")
	}
	// Higher c/b never increases speedup.
	for i := 1; i < len(cb); i++ {
		if cb[i].Speedup > cb[i-1].Speedup+1e-9 {
			t.Error("speedup increased with c/b")
		}
	}
	pkt, err := AblatePacket(256, []float64{1, 64}, []float64{0, 5e-4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkt) != 4 {
		t.Fatalf("pkt rows %d", len(pkt))
	}
	// Bigger packets (fewer α charges) and lower β help.
	if pkt[1].Speedup <= pkt[0].Speedup {
		t.Error("larger packet not faster")
	}
	if pkt[2].Speedup <= pkt[3].Speedup {
		t.Error("lower beta not faster")
	}
	var buf bytes.Buffer
	if err := RenderAblations(&buf, cb, pkt); err != nil {
		t.Fatal(err)
	}
}

func TestEmpiricalSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing in -short mode")
	}
	rows, err := Empirical([]int{128}, []int{1, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.SecondsPerIt <= 0 {
			t.Errorf("non-positive timing %+v", r)
		}
	}
	var buf bytes.Buffer
	if err := RenderEmpirical(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestRunAll pins every deterministic table and figure byte for byte:
// RunAll without the wall-clock empirical study must print exactly
// testdata/runall.golden, the output of `go run ./cmd/paperfigs`
// (captured on amd64; rewrite it with -update).
func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full regeneration in -short mode")
	}
	var buf bytes.Buffer
	if err := RunAll(&buf, nil, false); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "runall.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden %s (run with -update to create): %v", path, err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("RunAll output diverges from %s (%d vs %d bytes); diff it against go run ./cmd/paperfigs",
			path, len(got), len(want))
	}
	// Selective run.
	buf.Reset()
	if err := RunAll(&buf, map[string]bool{"table1": true}, false); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "Fig. 7") {
		t.Error("selective run leaked other experiments")
	}
	if len(IDs()) != 14 {
		t.Errorf("IDs() = %v", IDs())
	}
}

func TestBaselineContrast(t *testing.T) {
	rows, err := Baseline([]float64{0.01, 1, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	sawInterior := false
	for _, r := range rows {
		if !r.ModAssignExtreme {
			t.Error("module assignment produced a non-extremal optimum")
		}
		if r.ModAssignProcs != 1 && r.ModAssignProcs != 16 {
			t.Errorf("modassign used %d procs (not extremal)", r.ModAssignProcs)
		}
		if r.BusInterior {
			sawInterior = true
		}
	}
	if !sawInterior {
		t.Error("bus model produced no interior optimum across the sweep")
	}
	var buf bytes.Buffer
	if err := RenderBaseline(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestConvCheckExperiment(t *testing.T) {
	rows, err := ConvCheck(256, []int{1, 25, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows %d", len(rows))
	}
	// Overhead decreases with the period, per architecture.
	for i := 1; i < len(rows); i++ {
		if rows[i].Arch == rows[i-1].Arch && rows[i].OverheadFrac >= rows[i-1].OverheadFrac {
			t.Errorf("%s: overhead not decreasing (%g → %g)",
				rows[i].Arch, rows[i-1].OverheadFrac, rows[i].OverheadFrac)
		}
	}
	var buf bytes.Buffer
	if err := RenderConvCheck(&buf, rows, 256); err != nil {
		t.Fatal(err)
	}
}

func TestElasticitiesExperiment(t *testing.T) {
	res, err := Elasticities(512)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 8 {
		t.Fatalf("results %d", len(res))
	}
	for _, r := range res {
		if len(r.Rows) == 0 {
			t.Errorf("%s/%s: no rows", r.Arch, r.Shape)
		}
	}
	var buf bytes.Buffer
	if err := RenderElasticities(&buf, res, 512); err != nil {
		t.Fatal(err)
	}
}

func TestIsoefficiencyExperiment(t *testing.T) {
	rows, err := Isoefficiency(0.5, []int{8, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		for i := 1; i < len(r.Grids); i++ {
			if r.Grids[i] < r.Grids[i-1] {
				t.Errorf("%s/%s: isoefficiency grid shrank: %v", r.Arch, r.Shape, r.Grids)
			}
		}
		if r.Sigma <= 0 {
			t.Errorf("%s/%s: σ = %g", r.Arch, r.Shape, r.Sigma)
		}
	}
	// Bus strips demand the fastest-growing problems.
	bySig := map[string]float64{}
	for _, r := range rows {
		bySig[r.Arch+"/"+r.Shape] = r.Sigma
	}
	if !(bySig["sync-bus/strip"] > bySig["sync-bus/square"] &&
		bySig["sync-bus/square"] > bySig["hypercube/square"]) {
		t.Errorf("σ ordering violated: %v", bySig)
	}
	var buf bytes.Buffer
	if err := RenderIsoefficiency(&buf, rows, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := RenderIsoefficiency(&buf, nil, 0.5); err != nil {
		t.Fatal(err)
	}
}

func TestDiagrams(t *testing.T) {
	var buf bytes.Buffer
	if err := Diagrams(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"Fig. 1", "Fig. 2", "Fig. 3", "Fig. 4", "Fig. 5", "o", "*"} {
		if !strings.Contains(out, frag) {
			t.Errorf("diagrams missing %q", frag)
		}
	}
}
