package experiments

import (
	"fmt"
	"io"

	"optspeed/internal/stencil"
)

// experiment is one entry of RunAll's table: an id and what it writes.
type experiment struct {
	id  string
	run func(w io.Writer) error
}

// experiments lists every artifact RunAll regenerates, in output order.
var experiments = []experiment{
	{"diagrams", Diagrams},
	{"table1", func(w io.Writer) error {
		return RenderTable1(w, Table1(stencil.FivePoint, []int{64, 256, 1024, 4096}))
	}},
	{"fig6", func(w io.Writer) error {
		for _, n := range []int{256, 512} {
			res, err := Fig6(n)
			if err != nil {
				return err
			}
			if err := RenderFig6(w, res, len(res.Rows)/24+1); err != nil {
				return err
			}
		}
		return nil
	}},
	{"fig7", func(w io.Writer) error {
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
		return nil
	}},
	{"fig8", func(w io.Writer) error {
		for _, st := range []stencil.Stencil{stencil.FivePoint, stencil.NinePoint} {
			res, err := Fig8(st)
			if err != nil {
				return err
			}
			if err := RenderFig8(w, res); err != nil {
				return err
			}
		}
		return nil
	}},
	{"intext", func(w io.Writer) error {
		res, err := InText()
		if err != nil {
			return err
		}
		return RenderInText(w, res)
	}},
	{"scaling", func(w io.Writer) error {
		rows, err := Scaling(stencil.FivePoint, []int{256, 512, 1024, 2048, 4096}, 64)
		if err != nil {
			return err
		}
		return RenderScaling(w, rows)
	}},
	{"validate", func(w io.Writer) error {
		res, err := Validate(128)
		if err != nil {
			return err
		}
		return RenderValidation(w, res)
	}},
	{"ablate", func(w io.Writer) error {
		cb, err := AblateCB(256, []float64{0, 1, 10, 30, 100, 300, 1000, 2000})
		if err != nil {
			return err
		}
		pkt, err := AblatePacket(256,
			[]float64{1, 8, 64, 512}, []float64{0, 1e-5, 1e-4, 5e-4, 2e-3})
		if err != nil {
			return err
		}
		return RenderAblations(w, cb, pkt)
	}},
	{"convcheck", func(w io.Writer) error {
		rows, err := ConvCheck(256, []int{1, 5, 25, 100})
		if err != nil {
			return err
		}
		return RenderConvCheck(w, rows, 256)
	}},
	{"elasticity", func(w io.Writer) error {
		res, err := Elasticities(1024)
		if err != nil {
			return err
		}
		return RenderElasticities(w, res, 1024)
	}},
	{"isoeff", func(w io.Writer) error {
		rows, err := Isoefficiency(0.5, []int{8, 16, 32, 64})
		if err != nil {
			return err
		}
		return RenderIsoefficiency(w, rows, 0.5)
	}},
	{"baseline", func(w io.Writer) error {
		rows, err := Baseline([]float64{0.01, 0.1, 0.5, 1, 2, 10})
		if err != nil {
			return err
		}
		return RenderBaseline(w, rows)
	}},
	{"empirical", func(w io.Writer) error {
		rows, err := Empirical([]int{256, 512}, []int{1, 2, 4, 8, 16}, 30)
		if err != nil {
			return err
		}
		return RenderEmpirical(w, rows)
	}},
}

// RunAll regenerates every paper artifact and supporting study to w, in
// a fixed order. The only argument is the flag set of experiment ids to
// include (nil or empty = all).
//
// Heavier studies (V2 empirical timing) are included only when
// includeEmpirical is set, since wall-clock measurement belongs in
// benchmarks, not in deterministic regeneration.
func RunAll(w io.Writer, only map[string]bool, includeEmpirical bool) error {
	for _, e := range experiments {
		if len(only) > 0 && !only[e.id] || e.id == "empirical" && !includeEmpirical {
			continue
		}
		if err := e.run(w); err != nil {
			return err
		}
	}
	return nil
}

// IDs lists the experiment identifiers RunAll understands.
func IDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}
