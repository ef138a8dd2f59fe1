package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"optspeed/internal/core"
)

// BenchmarkSweepEngineFloor is the floor under BenchmarkSweepEngineEvicting
// (bench_test.go at the repository root): the same 768-spec optimize
// windows, each spec named (Space.At), resolved on its machine and
// evaluated into a result slice on GOMAXPROCS goroutines, with no cache,
// no coalescing and no channel.
// The gap between the two at equal -cpu is what the engine itself
// costs; docs/performance.md reports both at -cpu 1,2 with their
// Karp-Flatt serial fractions.
func BenchmarkSweepEngineFloor(b *testing.B) {
	const (
		nsPerWindow = 48
		n0          = 300
	)
	space := Space{
		Stencils: []string{"5-point", "9-point"},
		Shapes:   []string{"strip", "square"},
		Machines: []core.MachineSpec{{Type: "sync-bus"}, {Type: "async-bus"}, {Type: "hypercube"}, {Type: "mesh"}},
	}
	specsPerWindow := nsPerWindow * len(space.Stencils) * len(space.Shapes) * len(space.Machines)
	// The evicting benchmark's window cycle, so both evaluate the same
	// grid sizes.
	windows := (DefaultCacheSize + DefaultCacheSize/8) * 4 / 3 / specsPerWindow
	workers := runtime.GOMAXPROCS(0)
	results := make([]Result, specsPerWindow)
	machines := make([]machResolved, len(space.Machines))
	run := func(w int) {
		space.Ns = space.Ns[:0]
		for k := 0; k < nsPerWindow; k++ {
			space.Ns = append(space.Ns, n0+(w%windows)*nsPerWindow+k)
		}
		// As Engine.Open does, resolve each machine once per space.
		for j, m := range space.Machines {
			machines[j] = resolveMachine(m)
		}
		var cursor atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for range workers {
			go func() {
				defer wg.Done()
				for i := int(cursor.Add(1)) - 1; i < specsPerWindow; i = int(cursor.Add(1)) - 1 {
					res := &results[i]
					res.Spec = space.At(i)
					res.Answer = Answer{Index: i}
					// The space has no procs axis, so machines are its
					// innermost axis.
					r, err := res.Spec.resolveOn(&machines[i%len(machines)])
					if err != nil {
						res.Err = err
						continue
					}
					evaluate(res.Spec, r, &res.Answer)
				}
			}()
		}
		wg.Wait()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(specsPerWindow), "specs/op")
	for i := range results {
		if results[i].Err != nil || results[i].Value <= 0 {
			b.Fatalf("spec %d: %+v", i, results[i])
		}
	}
}
