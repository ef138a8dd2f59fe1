// Command perfbench is optspeedd's closed-loop benchmark. It drives the
// real service.Server in process, over loopback HTTP, on four named
// workloads (see README.md). Every round runs a fixed, seeded op
// sequence on fresh state — a new server, engine and data directory —
// and checks every output; a run repeats rounds for --seconds and
// reports pooled or median figures. With --trace 1 it instead runs the
// per-layer ladder: the same ops one layer lower at a time.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload jobs-durable --seconds 25 --steadiness 10
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"optspeed/internal/store"
)

type options struct {
	workload   string
	seed       int64
	seconds    int
	trace      int
	scale      float64
	minRounds  int
	dataRoot   string
	steadiness int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: sweep-cold, serve-warm, jobs-durable or cluster-cold")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 25, "measure for at least this long, in whole rounds")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the per-layer ladder instead of the end-to-end measurement")
	flag.StringVar(&o.dataRoot, "data", filepath.Join(".bench_build", "perfbench-data"), "scratch directory for WAL data")
	flag.IntVar(&o.steadiness, "steadiness", 0, "run the workload this many times (seeds seed..seed+k-1) and print each metric's spread")
	flag.Parse()
	// Three rounds at least: set-up is their median, and ladder rounds
	// alternate direction. The smoke test shrinks both.
	o.scale, o.minRounds = 1, 3
	if o.steadiness > 0 {
		if err := steadiness(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, stamp, err := run(o)
	if stamp != "" {
		fmt.Println(stamp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if res == nil {
			os.Exit(2)
		}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run. A nil result means the run could not
// start; a result with Correct false reports a failed op or check, and
// carries no metrics.
func run(o options) (*result, string, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, "", err
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, "", fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	warm, timed := w.build(o.seed, o.scale)
	root := filepath.Join(o.dataRoot, strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(root)
	b := &bench{w: w, warm: warm, timed: timed, root: root}
	fsync := "none"
	if w.durable {
		fsync = string(store.FsyncInterval)
	}
	stampFor := func(rounds int) string {
		return fmt.Sprintf("# perfbench workload=%s seed=%d trace=%d ops_per_round=%d rounds=%d clients=%d nproc=%d gomaxprocs=%d go=%s fsync=%s godebug=%q",
			w.name, o.seed, o.trace, len(timed), rounds, w.clients, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsync, os.Getenv("GODEBUG"))
	}
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	var total tally
	if o.trace == 1 {
		var rounds []ladderRound
		for len(rounds) < o.minRounds || time.Now().Before(deadline) {
			lr, t, err := b.ladderRound(len(rounds))
			total.add(t)
			if err != nil {
				return failed(total), stampFor(len(rounds) + 1), err
			}
			rounds = append(rounds, lr)
		}
		m, err := ladderMetrics(w, rounds)
		if err != nil {
			total.add(tally{failed: 1})
			return failed(total), stampFor(len(rounds)), err
		}
		return &result{Correct: true, Attempted: total.attempted, Metrics: m}, stampFor(len(rounds)), nil
	}
	var rounds []*roundResult
	for len(rounds) < o.minRounds || time.Now().Before(deadline) {
		rr, t, err := b.phaseRun(rungHTTP, false)
		total.add(t)
		if err != nil {
			return failed(total), stampFor(len(rounds) + 1), err
		}
		rr.recs = nil
		rounds = append(rounds, rr)
	}
	return &result{Correct: true, Attempted: total.attempted, Metrics: endToEnd(rounds)}, stampFor(len(rounds)), nil
}

// failed is the result of a run that a failed op or check stopped: the
// ops it attempted and failed, and no metrics.
func failed(t tally) *result {
	return &result{Attempted: max(t.attempted, 1), Failed: max(t.failed, 1), Metrics: map[string]metric{}}
}

// endToEnd reduces the untraced rounds to the end-to-end metrics. Each
// is the median over rounds of that round's figure, so one round that
// a noisy neighbour slowed does not move the run's result.
func endToEnd(rounds []*roundResult) map[string]metric {
	per := map[string][]float64{}
	for _, r := range rounds {
		n := float64(len(r.lat))
		per["ops_per_s"] = append(per["ops_per_s"], n/r.wall.Seconds())
		per["op_p50_ms"] = append(per["op_p50_ms"], percentileMs(r.lat, 0.50))
		per["op_p90_ms"] = append(per["op_p90_ms"], percentileMs(r.lat, 0.90))
		per["cpu_ms_per_op"] = append(per["cpu_ms_per_op"], ms(r.cpu)/n)
		per["alloc_kb_per_op"] = append(per["alloc_kb_per_op"], float64(r.alloc)/1024/n)
		per["retained_heap_mb"] = append(per["retained_heap_mb"], float64(r.heap)/(1<<20))
		per["setup_s"] = append(per["setup_s"], r.setup.Seconds())
	}
	out := map[string]metric{}
	for _, m := range endToEndMetrics {
		out[m.name] = metric{Value: median(per[m.name]), Unit: m.unit}
	}
	return out
}

// endToEndMetrics is the untraced run's metric set, in BENCHMARK.json
// order.
var endToEndMetrics = []struct{ name, unit, better string }{
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"alloc_kb_per_op", "kB", "lower"},
	{"retained_heap_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// steadiness runs the workload k times as child processes, one seed
// each, and prints every end-to-end metric's median, quartiles, range
// and quartile spread as a share of the median — the evidence behind
// the bounds in BENCHMARK.json.
func steadiness(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	var names []string
	for k := 0; k < o.steadiness; k++ {
		seed := o.seed + int64(k)
		cmd := exec.Command(self, "--workload", o.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(o.trace), "--data", o.dataRoot)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		var last []byte
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			if line := sc.Bytes(); len(line) > 0 {
				if line[0] == '#' {
					fmt.Println(string(line))
				}
				last = append(last[:0], line...)
			}
		}
		var res result
		if err := json.Unmarshal(last, &res); err != nil || !res.Correct {
			return fmt.Errorf("seed %d: bad result %s", seed, last)
		}
		line := fmt.Sprintf("# seed %d:", seed)
		for name, m := range res.Metrics {
			if _, ok := values[name]; !ok {
				names = append(names, name)
			}
			values[name] = append(values[name], m.Value)
		}
		for _, m := range endToEndMetrics {
			if v, ok := res.Metrics[m.name]; ok {
				line += fmt.Sprintf(" %s=%.4g", m.name, v.Value)
			}
		}
		fmt.Println(line)
	}
	sort.Strings(names)
	fmt.Printf("%-32s %12s %12s %12s %12s %12s %8s\n", "metric", "median", "q1", "q3", "min", "max", "iqr/med")
	for _, name := range names {
		v := values[name]
		q1, q2, q3 := quartiles(v)
		lo, hi := minMax(v)
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Printf("%-32s %12.5g %12.5g %12.5g %12.5g %12.5g %7.1f%%\n", name, q2, q1, q3, lo, hi, 100*spread)
	}
	return nil
}
