package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestDeclaredMetricsMatch holds the benchmark's metric tables to
// BENCHMARK.json entry by entry, and its workloads, with their reasons,
// to the ones BENCHMARK.json declares.
func TestDeclaredMetricsMatch(t *testing.T) {
	spec := readBenchmarkJSON(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, d := range spec.Workloads {
		w, err := workloadByName(d.Name)
		if err != nil {
			t.Fatal(err)
		}
		if d.Why != w.why {
			t.Errorf("workload %s: BENCHMARK.json says %q, the benchmark %q", d.Name, d.Why, w.why)
		}
	}
	match := func(kind string, got []declared, want []struct{ name, unit, better string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit || got[i].Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, got[i], m)
			}
		}
	}
	match("end_to_end", spec.EndToEnd, endToEndMetrics)
	match("per_layer", spec.PerLayer, perLayer)
}

// TestSmoke runs every workload with a tiny op count, untraced and
// traced: each run must pass its correctness gate and print exactly the
// metric names and units BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readBenchmarkJSON(t)
	for _, w := range workloads {
		for trace, want := range [][]declared{spec.EndToEnd, spec.PerLayer} {
			// Three traced rounds (down, up, down the ladder) keep its
			// accounting check meaningful at this size.
			res, stamp, err := run(options{workload: w.name, seed: 1, trace: trace, scale: 0.1,
				minRounds: 1 + 2*trace, dataRoot: t.TempDir()})
			if err != nil || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%d: %v (result %+v, %s)", w.name, trace, err, res, stamp)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v,
// n=4), the spread rule the bounds are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestDriveCountsFailedOps pins how a failed op is reported: the ops
// that started count as attempted, the failing one as failed, and no
// op starts after it.
func TestDriveCountsFailedOps(t *testing.T) {
	tl, err := drive(1, 10, func(i int) error {
		if i == 3 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil || tl.attempted != 4 || tl.failed != 1 {
		t.Fatalf("drive = %+v, %v; want 4 attempted, 1 failed", tl, err)
	}
}
