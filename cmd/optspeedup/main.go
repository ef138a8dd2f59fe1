// Command optspeedup answers the paper's central question from the
// command line: for a given grid size, stencil, partition shape, and
// architecture, how many processors should be used and what speedup
// results?
//
// Usage:
//
//	optspeedup -n 512 -stencil 5-point -shape square -arch sync-bus -procs 0
//
// With -procs 0 the machine is unbounded (the paper's "architecture
// grows with the problem" regime). -arch takes a machine type name,
// which uses the calibrated defaults documented at the top of
// internal/core/machine.go, or a full JSON machine spec such as
// '{"type":"sync-bus","b":2e-6}' (the form -dump-spec prints); fields
// the spec omits take the same defaults.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"optspeed/internal/core"
	"optspeed/internal/sweep"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == flag.ErrHelp:
	case err != nil:
		fmt.Fprintf(os.Stderr, "optspeedup: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("optspeedup", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 256, "grid points per side (problem size is n^2)")
		stName   = fs.String("stencil", "5-point", "stencil: 5-point | 9-point | 9-star | 13-point")
		shape    = fs.String("shape", "square", "partition shape: strip | square")
		arch     = fs.String("arch", "sync-bus", "architecture: hypercube | mesh | sync-bus | async-bus | full-async-bus | banyan, or a JSON machine spec")
		procs    = fs.Int("procs", 0, "available processors (0 = unbounded, or the -arch spec's procs)")
		curveMax = fs.Int("curve", 0, "also print the cycle-time curve up to this processor count")
		dumpSpec = fs.Bool("dump-spec", false, "print the machine's JSON spec and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	p, err := sweep.Spec{N: *n, Stencil: *stName, Shape: *shape}.Problem()
	if err != nil {
		return err
	}
	spec, err := core.ParseMachineArg(*arch)
	if err != nil {
		return err
	}
	if *procs != 0 {
		spec.Procs = *procs
	}
	machine, err := spec.Machine()
	if err != nil {
		return err
	}
	if *dumpSpec {
		data, err := core.MarshalMachine(machine)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(stdout, string(data))
		return err
	}

	alloc, err := core.Optimize(p, machine)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "problem:        %s (k=%d, E=%g flops/point)\n", p, p.K(), p.Flops())
	fmt.Fprintf(stdout, "architecture:   %s\n", machine.Name())
	fmt.Fprintf(stdout, "optimal procs:  %d", alloc.Procs)
	switch {
	case alloc.Single:
		fmt.Fprintf(stdout, "  (keep the whole grid on one processor)")
	case alloc.UsedAll:
		fmt.Fprintf(stdout, "  (spread maximally)")
	case alloc.Interior:
		fmt.Fprintf(stdout, "  (interior optimum: fewer than available)")
	}
	fmt.Fprintln(stdout)
	serial := p.SerialTime(machine.Tflp())
	fmt.Fprintf(stdout, "partition area: %.1f points (continuous optimum %.1f)\n", alloc.Area, alloc.ContinuousArea)
	fmt.Fprintf(stdout, "cycle time:     %.6g s/iteration\n", alloc.CycleTime)
	fmt.Fprintf(stdout, "speedup:        %.2f  (serial %.6g s/iteration)\n", alloc.Speedup, serial)
	fmt.Fprintf(stdout, "growth order:   %s\n", core.SpeedupGrowth(machine, p.Shape))

	if *curveMax > 1 {
		fmt.Fprintln(stdout, "\nP\tcycle(s)\tspeedup")
		for i, t := range core.CycleCurve(p, machine, *curveMax) {
			fmt.Fprintf(stdout, "%d\t%.6g\t%.2f\n", i+1, t, serial/t)
		}
	}
	return nil
}
