package simarch

import (
	"math"

	"optspeed/internal/core"
	"optspeed/internal/partition"
	"optspeed/internal/stencil"
)

// Validation compares one simulated cycle time against the analytic
// model's prediction.
type Validation struct {
	Arch      string
	Shape     string
	Procs     int
	Simulated float64
	Predicted float64
	RelErr    float64 // |sim − model| / model
}

func newValidation(arch string, p core.Problem, procs int, simT, modelT float64) Validation {
	return Validation{
		Arch:      arch,
		Shape:     p.Shape.String(),
		Procs:     procs,
		Simulated: simT,
		Predicted: modelT,
		RelErr:    math.Abs(simT-modelT) / modelT,
	}
}

// ValidateSyncBus sweeps processor counts and compares the simulated
// synchronous bus (bulk discipline, the paper's footnote-3 model)
// against the analytic cycle time.
func ValidateSyncBus(p core.Problem, bus core.SyncBus, procCounts []int) ([]Validation, error) {
	var out []Validation
	for _, procs := range procCounts {
		res, err := SimulateSyncBus(p, bus, procs, BulkTransfers)
		if err != nil {
			return nil, err
		}
		model := bus.CycleTime(p, p.AreaFor(procs))
		out = append(out, newValidation(bus.Name(), p, procs, res.CycleTime, model))
	}
	return out, nil
}

// ValidateAsyncBus compares the simulated asynchronous bus against the
// analytic equation (7).
func ValidateAsyncBus(p core.Problem, bus core.AsyncBus, procCounts []int) ([]Validation, error) {
	var out []Validation
	for _, procs := range procCounts {
		res, err := SimulateAsyncBus(p, bus, procs)
		if err != nil {
			return nil, err
		}
		model := bus.CycleTime(p, p.AreaFor(procs))
		out = append(out, newValidation(bus.Name(), p, procs, res.CycleTime, model))
	}
	return out, nil
}

// ValidateHypercube compares the Gray-embedded hypercube simulation
// against the analytic nearest-neighbor model.
func ValidateHypercube(p core.Problem, hc core.Hypercube, procCounts []int) ([]Validation, error) {
	var out []Validation
	for _, procs := range procCounts {
		res, err := SimulateHypercube(p, hc, procs, GrayMapping, 1)
		if err != nil {
			return nil, err
		}
		model := hc.CycleTime(p, p.AreaFor(procs))
		out = append(out, newValidation(hc.Name(), p, procs, res.CycleTime, model))
	}
	return out, nil
}

// ValidateBanyan compares the own-module banyan simulation against the
// analytic switching-network model. The analytic form charges
// 2·w·log₂(N) per word with N the processors employed, matching a
// machine grown to fit (NProcs = 0) or sized exactly (NProcs = procs).
func ValidateBanyan(p core.Problem, by core.Banyan, procCounts []int) ([]Validation, error) {
	var out []Validation
	for _, procs := range procCounts {
		res, err := SimulateBanyan(p, by, procs, OwnModule, 1)
		if err != nil {
			return nil, err
		}
		sized := by
		sized.NProcs = procs
		model := sized.CycleTime(p, p.AreaFor(procs))
		out = append(out, newValidation(by.Name(), p, procs, res.CycleTime, model))
	}
	return out, nil
}

// ValidateAll runs every architecture validation on its natural sweep and
// returns the combined results. maxRelErr is the largest relative error
// observed, the headline number of experiment V1.
//
// Sweeps stay in the regime the paper's uniform model describes: square
// decompositions use perfect-square processor counts (so partition sides,
// and hence word counts, are integral), and the hypercube square sweep
// starts at 16 processors — a 2×2 processor grid consists solely of
// corner partitions with two neighbors, which the model's uniform
// four-neighbor charge overstates by construction (the paper's model
// "assumes the number of partition points is large relative to the
// number of processors").
func ValidateAll(n int) (results []Validation, maxRelErr float64, err error) {
	stripSweep := []int{2, 4, 8, 16, 32, 64}
	squareSweep := []int{4, 16, 64}
	cubeSquareSweep := []int{16, 64}
	add := func(vs []Validation, e error) error {
		if e != nil {
			return e
		}
		results = append(results, vs...)
		return nil
	}
	for _, sh := range partition.Shapes() {
		p, e := core.NewProblem(n, coreStencil(), sh)
		if e != nil {
			return nil, 0, e
		}
		sweep := stripSweep
		cubeSweep := stripSweep
		if sh == partition.Square {
			sweep = squareSweep
			cubeSweep = cubeSquareSweep
		}
		if e := add(ValidateSyncBus(p, core.DefaultSyncBus(0), sweep)); e != nil {
			return nil, 0, e
		}
		if e := add(ValidateAsyncBus(p, core.DefaultAsyncBus(0), sweep)); e != nil {
			return nil, 0, e
		}
		if e := add(ValidateHypercube(p, core.DefaultHypercube(0), cubeSweep)); e != nil {
			return nil, 0, e
		}
		if e := add(ValidateBanyan(p, core.DefaultBanyan(0), sweep)); e != nil {
			return nil, 0, e
		}
	}
	for _, v := range results {
		if v.RelErr > maxRelErr {
			maxRelErr = v.RelErr
		}
	}
	return results, maxRelErr, nil
}

// coreStencil returns the stencil used by the standard validation sweep,
// kept in one place so every sweep stays consistent.
func coreStencil() stencil.Stencil { return stencil.FivePoint }
