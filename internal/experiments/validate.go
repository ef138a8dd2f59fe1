package experiments

import (
	"fmt"
	"io"

	"optspeed/internal/core"
	"optspeed/internal/partition"
	"optspeed/internal/simarch"
	"optspeed/internal/stencil"
	"optspeed/internal/tab"
)

// ValidationResult is experiment V1: discrete-event simulations of every
// architecture compared against the analytic cycle-time model, plus the
// ablations that justify the model's contention-free assumptions. Each
// ablation runs the 5-point stencil on n×n strips.
type ValidationResult struct {
	N         int
	Rows      []simarch.Validation
	MaxRelErr float64

	Embeddings  []simarch.CubeResult   // 32-node hypercube, one per ablationMappings
	Assignments []simarch.BanyanResult // 64-processor banyan, one per ablationAssignments
	Bus         [][2]simarch.BusResult // sync bus {bulk, word-interleaved}, one per ablationBusProcs
}

var (
	ablationMappings    = []simarch.Mapping{simarch.GrayMapping, simarch.NaiveMapping, simarch.RandomMapping}
	ablationAssignments = []simarch.Assignment{simarch.OwnModule, simarch.ShiftModule, simarch.RandomModule}
	ablationBusProcs    = []int{2, 4, 8, 16, 32}
)

// Validate runs the full V1 sweep and its ablations on an n×n problem.
func Validate(n int) (ValidationResult, error) {
	rows, maxRel, err := simarch.ValidateAll(n)
	if err != nil {
		return ValidationResult{}, err
	}
	res := ValidationResult{N: n, Rows: rows, MaxRelErr: maxRel}
	p, err := core.NewProblem(n, stencil.FivePoint, partition.Strip)
	if err != nil {
		return ValidationResult{}, err
	}
	for _, m := range ablationMappings {
		r, err := simarch.SimulateHypercube(p, core.DefaultHypercube(0), 32, m, 7)
		if err != nil {
			return ValidationResult{}, err
		}
		res.Embeddings = append(res.Embeddings, r)
	}
	for _, a := range ablationAssignments {
		r, err := simarch.SimulateBanyan(p, core.DefaultBanyan(0), 64, a, 7)
		if err != nil {
			return ValidationResult{}, err
		}
		res.Assignments = append(res.Assignments, r)
	}
	for _, procs := range ablationBusProcs {
		var pair [2]simarch.BusResult
		for i, disc := range []simarch.BusDiscipline{simarch.BulkTransfers, simarch.WordInterleaved} {
			if pair[i], err = simarch.SimulateSyncBus(p, core.DefaultSyncBus(0), procs, disc); err != nil {
				return ValidationResult{}, err
			}
		}
		res.Bus = append(res.Bus, pair)
	}
	return res, nil
}

// RenderValidation writes the model-vs-simulation table and the three
// ablation tables.
func RenderValidation(w io.Writer, res ValidationResult) error {
	t := tab.New(
		fmt.Sprintf("V1 — DES simulation vs analytic model, %dx%d grid", res.N, res.N),
		"architecture", "shape", "P", "simulated (s)", "model (s)", "rel err")
	for _, v := range res.Rows {
		t.AddRow(v.Arch, v.Shape, v.Procs, v.Simulated, v.Predicted, v.RelErr)
	}
	if err := t.WriteText(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "max relative error: %.4g\n\n", res.MaxRelErr)

	fmt.Fprintln(w, "## Hypercube embedding ablation (32 nodes, strips)")
	fmt.Fprintln(w, "mapping  comm (s)   max hops  avg hops")
	for i, r := range res.Embeddings {
		fmt.Fprintf(w, "%-8s %-10.4g %-9d %.2f\n", ablationMappings[i], r.CommTime, r.MaxHops, r.AvgHops)
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "## Banyan module-assignment ablation (64 processors, strips)")
	fmt.Fprintln(w, "assignment  read (s)   conflicts  passes")
	for i, r := range res.Assignments {
		fmt.Fprintf(w, "%-11s %-10.4g %-10d %d\n", ablationAssignments[i], r.ReadTime, r.Conflicts, r.Passes)
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "## Bus arbitration disciplines (strips): paper's bulk model vs word-interleaved")
	fmt.Fprintln(w, "P    bulk read (s)  word-interleaved read (s)")
	for i, r := range res.Bus {
		if _, err := fmt.Fprintf(w, "%-4d %-14.4g %.4g\n", ablationBusProcs[i], r[0].ReadPhase, r[1].ReadPhase); err != nil {
			return err
		}
	}
	return nil
}
