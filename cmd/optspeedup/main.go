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
// grows with the problem" regime). Machine parameters default to the
// calibrated values documented at the top of internal/core/machine.go
// and can be overridden with flags.
package main

import (
	"flag"
	"fmt"
	"os"

	"optspeed/internal/core"
	"optspeed/internal/stencil"
	"optspeed/internal/sweep"
)

func main() {
	var (
		n        = flag.Int("n", 256, "grid points per side (problem size is n^2)")
		stName   = flag.String("stencil", "5-point", "stencil: 5-point | 9-point | 9-star | 13-point")
		shape    = flag.String("shape", "square", "partition shape: strip | square")
		arch     = flag.String("arch", "sync-bus", "architecture: hypercube | mesh | sync-bus | async-bus | full-async-bus | banyan")
		procs    = flag.Int("procs", 0, "available processors (0 = unbounded)")
		tflp     = flag.Float64("tflp", core.DefaultTflp, "seconds per floating point operation")
		busB     = flag.Float64("b", core.DefaultBusCycle, "bus cycle time per word (buses)")
		busC     = flag.Float64("c", core.DefaultBusOverhead, "fixed per-word overhead (buses)")
		alpha    = flag.Float64("alpha", core.DefaultAlpha, "per-packet cost (hypercube/mesh)")
		beta     = flag.Float64("beta", core.DefaultBeta, "message startup cost (hypercube/mesh)")
		packet   = flag.Float64("packet", core.DefaultPacketWords, "packet size in words (hypercube/mesh)")
		switchW  = flag.Float64("w", core.DefaultSwitchTime, "switch stage time (banyan)")
		snapped  = flag.Bool("snap", false, "snap square partitions to working rectangles")
		curveMax = flag.Int("curve", 0, "also print the cycle-time curve up to this processor count")
		specFile = flag.String("spec", "", "JSON machine spec file (overrides -arch and machine flags)")
		dumpSpec = flag.Bool("dump-spec", false, "print the machine's JSON spec and exit")
	)
	flag.Parse()

	st, ok := stencil.ByName(*stName)
	if !ok {
		fatalf("unknown stencil %q", *stName)
	}
	sh, err := sweep.ParseShape(*shape)
	if err != nil {
		fatalf("unknown shape %q", *shape)
	}
	p, err := core.NewProblem(*n, st, sh)
	if err != nil {
		fatalf("%v", err)
	}

	var machine core.Architecture
	if *specFile != "" {
		data, err := os.ReadFile(*specFile)
		if err != nil {
			fatalf("%v", err)
		}
		machine, err = core.ParseMachine(data)
		if err != nil {
			fatalf("%v", err)
		}
	} else {
		switch *arch {
		case "hypercube":
			machine = core.Hypercube{TflpTime: *tflp, Alpha: *alpha, Beta: *beta, PacketWords: *packet, NProcs: *procs}
		case "mesh":
			machine = core.Mesh{TflpTime: *tflp, Alpha: *alpha, Beta: *beta, PacketWords: *packet, NProcs: *procs}
		case "sync-bus":
			machine = core.SyncBus{TflpTime: *tflp, B: *busB, C: *busC, NProcs: *procs}
		case "async-bus":
			machine = core.AsyncBus{TflpTime: *tflp, B: *busB, C: *busC, NProcs: *procs}
		case "full-async-bus":
			machine = core.AsyncBus{TflpTime: *tflp, B: *busB, C: *busC, NProcs: *procs, Overlap: core.OverlapReadsAndWrites}
		case "banyan":
			machine = core.Banyan{TflpTime: *tflp, W: *switchW, NProcs: *procs}
		default:
			fatalf("unknown architecture %q", *arch)
		}
	}

	if *dumpSpec {
		data, err := core.MarshalMachine(machine)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(data))
		return
	}

	optimize := core.Optimize
	if *snapped {
		optimize = core.OptimizeSnapped
	}
	alloc, err := optimize(p, machine)
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("problem:        %s (k=%d, E=%g flops/point)\n", p, p.K(), p.Flops())
	fmt.Printf("architecture:   %s\n", machine.Name())
	fmt.Printf("optimal procs:  %d", alloc.Procs)
	switch {
	case alloc.Single:
		fmt.Printf("  (keep the whole grid on one processor)")
	case alloc.UsedAll:
		fmt.Printf("  (spread maximally)")
	case alloc.Interior:
		fmt.Printf("  (interior optimum: fewer than available)")
	}
	fmt.Println()
	fmt.Printf("partition area: %.1f points (continuous optimum %.1f)\n", alloc.Area, alloc.ContinuousArea)
	fmt.Printf("cycle time:     %.6g s/iteration\n", alloc.CycleTime)
	fmt.Printf("speedup:        %.2f  (serial %.6g s/iteration)\n",
		alloc.Speedup, p.SerialTime(machine.Tflp()))
	fmt.Printf("growth order:   %s\n", core.SpeedupGrowth(machine, sh))

	if *curveMax > 1 {
		fmt.Println("\nP\tcycle(s)\tspeedup")
		serial := p.SerialTime(machine.Tflp())
		for i, t := range core.CycleCurve(p, machine, *curveMax) {
			fmt.Printf("%d\t%.6g\t%.2f\n", i+1, t, serial/t)
		}
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "optspeedup: "+format+"\n", args...)
	os.Exit(1)
}
