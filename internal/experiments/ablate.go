package experiments

import (
	"fmt"
	"io"

	"optspeed/internal/core"
	"optspeed/internal/partition"
	"optspeed/internal/stencil"
	"optspeed/internal/tab"
)

// AblateCBRow is one point of ablation A1: how the c/b ratio moves the
// optimal processor count on a synchronous bus (the §6.1 c/b ≤ P
// condition in action).
type AblateCBRow struct {
	COverB       float64
	OptimalProcs int
	Interior     bool
	Speedup      float64
}

// AblateCB sweeps c/b for a square problem on a 1024-processor bus.
func AblateCB(n int, ratios []float64) ([]AblateCBRow, error) {
	var out []AblateCBRow
	for _, r := range ratios {
		bus := core.DefaultSyncBus(1024)
		bus.C = r * bus.B
		p := core.Problem{N: n, Stencil: stencil.FivePoint, Shape: partition.Square}
		alloc, err := core.Optimize(p, bus)
		if err != nil {
			return nil, err
		}
		out = append(out, AblateCBRow{
			COverB:       r,
			OptimalProcs: alloc.Procs,
			Interior:     alloc.Interior,
			Speedup:      alloc.Speedup,
		})
	}
	return out, nil
}

// AblatePacketRow is one point of ablation A2: hypercube packet size and
// startup cost versus optimal speedup.
type AblatePacketRow struct {
	PacketWords float64
	Beta        float64
	Speedup     float64
}

// AblatePacket sweeps hypercube packet size (at the default β) and β (at
// the default packet size) for a square problem spread over all of a
// 256-node hypercube.
func AblatePacket(n int, packets []float64, betas []float64) ([]AblatePacketRow, error) {
	var out []AblatePacketRow
	p := core.Problem{N: n, Stencil: stencil.FivePoint, Shape: partition.Square}
	for _, pk := range packets {
		hc := core.DefaultHypercube(256)
		hc.PacketWords = pk
		s, err := core.Speedup(p, hc, 256)
		if err != nil {
			return nil, err
		}
		out = append(out, AblatePacketRow{PacketWords: pk, Beta: hc.Beta, Speedup: s})
	}
	for _, beta := range betas {
		hc := core.DefaultHypercube(256)
		hc.Beta = beta
		s, err := core.Speedup(p, hc, 256)
		if err != nil {
			return nil, err
		}
		out = append(out, AblatePacketRow{PacketWords: hc.PacketWords, Beta: beta, Speedup: s})
	}
	return out, nil
}

// RenderAblations writes both ablation tables.
func RenderAblations(w io.Writer, cb []AblateCBRow, pkt []AblatePacketRow) error {
	t1 := tab.New("A1 — c/b ratio vs optimal allocation (n=256 squares, 1024-proc bus)",
		"c/b", "P*", "interior?", "speedup")
	for _, r := range cb {
		t1.AddRow(r.COverB, r.OptimalProcs, fmt.Sprint(r.Interior), r.Speedup)
	}
	if err := t1.WriteText(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	t2 := tab.New("A2 — hypercube packet size / startup cost vs all-procs speedup",
		"packet words", "beta (s)", "speedup")
	for _, r := range pkt {
		t2.AddRow(r.PacketWords, r.Beta, r.Speedup)
	}
	if err := t2.WriteText(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}
