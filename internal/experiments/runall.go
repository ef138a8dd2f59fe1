package experiments

import (
	"fmt"
	"io"

	"optspeed/internal/stencil"
)

// RunAll regenerates every paper artifact and supporting study to w, in
// a fixed order. The only argument is the flag set of experiment ids to
// include (nil or empty = all).
//
// Heavier studies (V2 empirical timing) are included only when
// includeEmpirical is set, since wall-clock measurement belongs in
// benchmarks, not in deterministic regeneration.
func RunAll(w io.Writer, only map[string]bool, includeEmpirical bool) error {
	want := func(id string) bool { return len(only) == 0 || only[id] }

	if want("diagrams") {
		if err := Diagrams(w); err != nil {
			return err
		}
	}
	if want("table1") {
		res := Table1(stencil.FivePoint, []int{64, 256, 1024, 4096})
		if err := RenderTable1(w, res); err != nil {
			return err
		}
	}
	if want("fig6") {
		for _, n := range []int{256, 512} {
			res, err := Fig6(n)
			if err != nil {
				return err
			}
			if err := RenderFig6(w, res, len(res.Rows)/24+1); err != nil {
				return err
			}
		}
	}
	if want("fig7") {
		for _, st := range []stencil.Stencil{stencil.FivePoint, stencil.NinePoint} {
			res, err := Fig7(st, 24)
			if err != nil {
				return err
			}
			if err := RenderFig7(w, res); err != nil {
				return err
			}
			anchor, err := Fig7Anchor(st)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "anchor: 256x256/%s/squares gainfully uses 1..%d processors\n\n", st.Name(), anchor)
		}
	}
	if want("fig8") {
		for _, st := range []stencil.Stencil{stencil.FivePoint, stencil.NinePoint} {
			res, err := Fig8(st)
			if err != nil {
				return err
			}
			if err := RenderFig8(w, res); err != nil {
				return err
			}
		}
	}
	if want("intext") {
		res, err := InText()
		if err != nil {
			return err
		}
		if err := RenderInText(w, res); err != nil {
			return err
		}
	}
	if want("scaling") {
		rows, err := Scaling(stencil.FivePoint, []int{256, 512, 1024, 2048, 4096}, 64)
		if err != nil {
			return err
		}
		if err := RenderScaling(w, rows); err != nil {
			return err
		}
	}
	if want("validate") {
		res, err := Validate(128)
		if err != nil {
			return err
		}
		if err := RenderValidation(w, res); err != nil {
			return err
		}
	}
	if want("ablate") {
		cb, err := AblateCB(256, []float64{0, 1, 10, 30, 100, 300, 1000, 2000})
		if err != nil {
			return err
		}
		pkt, err := AblatePacket(256,
			[]float64{1, 8, 64, 512}, []float64{0, 1e-5, 1e-4, 5e-4, 2e-3})
		if err != nil {
			return err
		}
		if err := RenderAblations(w, cb, pkt); err != nil {
			return err
		}
	}
	if want("convcheck") {
		rows, err := ConvCheck(256, []int{1, 5, 25, 100})
		if err != nil {
			return err
		}
		if err := RenderConvCheck(w, rows, 256); err != nil {
			return err
		}
	}
	if want("elasticity") {
		res, err := Elasticities(1024)
		if err != nil {
			return err
		}
		if err := RenderElasticities(w, res, 1024); err != nil {
			return err
		}
	}
	if want("isoeff") {
		rows, err := Isoefficiency(0.5, []int{8, 16, 32, 64})
		if err != nil {
			return err
		}
		if err := RenderIsoefficiency(w, rows, 0.5); err != nil {
			return err
		}
	}
	if want("baseline") {
		rows, err := Baseline([]float64{0.01, 0.1, 0.5, 1, 2, 10})
		if err != nil {
			return err
		}
		if err := RenderBaseline(w, rows); err != nil {
			return err
		}
	}
	if includeEmpirical && want("empirical") {
		rows, err := Empirical([]int{256, 512}, []int{1, 2, 4, 8, 16}, 30)
		if err != nil {
			return err
		}
		if err := RenderEmpirical(w, rows); err != nil {
			return err
		}
	}
	return nil
}

// IDs lists the experiment identifiers RunAll understands.
func IDs() []string {
	return []string{
		"diagrams", "table1", "fig6", "fig7", "fig8", "intext", "scaling",
		"validate", "ablate", "convcheck", "elasticity", "isoeff", "baseline",
		"empirical",
	}
}
