// Command optcli is the command-line client for the optspeedd v2 job
// API, built on the optspeed/client SDK.
//
// Usage:
//
//	optcli [-server URL] <command> [flags] [args]
//
// Commands:
//
//	optimize  -n N -stencil S -shape SH -machine TYPE
//	          submit one optimize query, wait, and print its result
//	submit    -f sweep.json ("-" = stdin)
//	          submit a sweep job and print the accepted job
//	status    JOB_ID        print a job's status and progress
//	wait      JOB_ID        block until the job is terminal
//	results   JOB_ID [-cursor C] [-limit N] [-follow]
//	          print result pages as JSON lines; -follow tracks a
//	          running job until it completes
//	cancel    JOB_ID        request cancellation
//	jobs      [--json]      list resident jobs as a table (with a
//	          DURABLE column showing persisted/recovered against a
//	          server running a durable job store) or as raw JSON
//	stream    -f sweep.json ("-" = stdin)
//	          stream results as they are computed, one JSON line each
//	cluster   [--json] [-add URL] [-remove URL]
//	          print the coordinator's fleet: per-peer membership state,
//	          breaker position, probe health, and the scatter/hedge
//	          counters; -add/-remove change the live roster
//	laws      -n N -stencil S -shape SH -machine TYPE [-procs 1,2,4] [--json]
//	          overlay the model's speedup against Amdahl, Gustafson,
//	          and the critical-path bound across a processor axis
//
// The sweep file is the API's sweep body, e.g.:
//
//	{"space":{"ns":[256,512],"stencils":["5-point"],"shapes":["square"],
//	          "machines":[{"type":"sync-bus"}],"op":"speedup","procs":[2,4,8]}}
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"optspeed/client"
	"optspeed/internal/core"
)

func main() {
	server := flag.String("server", "http://localhost:8080", "optspeedd base URL")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}
	c, err := client.New(*server)
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cmd, args := flag.Arg(0), flag.Args()[1:]
	if err := run(ctx, c, cmd, args); err != nil {
		fatal(err)
	}
}

func run(ctx context.Context, c *client.Client, cmd string, args []string) error {
	switch cmd {
	case "optimize":
		return cmdOptimize(ctx, c, args)
	case "submit":
		return cmdSubmit(ctx, c, args)
	case "status":
		return cmdStatus(ctx, c, args)
	case "wait":
		return cmdWait(ctx, c, args)
	case "results":
		return cmdResults(ctx, c, args)
	case "cancel":
		return cmdCancel(ctx, c, args)
	case "jobs":
		return cmdJobs(ctx, c, args)
	case "stream":
		return cmdStream(ctx, c, args)
	case "cluster":
		return cmdCluster(ctx, c, args)
	case "laws":
		return cmdLaws(ctx, c, args)
	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr,
		"usage: optcli [-server URL] {optimize|submit|status|wait|results|cancel|jobs|stream|cluster|laws} ...")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "optcli: %v\n", err)
	os.Exit(1)
}

// printJSON writes one indented JSON document to stdout.
func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// printLine writes one compact JSON line to stdout (NDJSON-friendly).
func printLine(v any) error {
	return json.NewEncoder(os.Stdout).Encode(v)
}

// readSweep loads the sweep body from -f (a path or "-" for stdin).
func readSweep(args []string, cmd string) (client.SweepRequest, []string, error) {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	file := fs.String("f", "", "sweep request JSON file (\"-\" = stdin)")
	if err := fs.Parse(args); err != nil {
		return client.SweepRequest{}, nil, err
	}
	if *file == "" {
		return client.SweepRequest{}, nil, fmt.Errorf("%s: -f FILE is required", cmd)
	}
	var raw []byte
	var err error
	if *file == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(*file)
	}
	if err != nil {
		return client.SweepRequest{}, nil, err
	}
	var req client.SweepRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		return client.SweepRequest{}, nil, fmt.Errorf("%s: parse %s: %w", cmd, *file, err)
	}
	return req, fs.Args(), nil
}

func jobID(args []string, cmd string) (string, error) {
	if len(args) != 1 || args[0] == "" {
		return "", fmt.Errorf("%s: exactly one JOB_ID argument expected", cmd)
	}
	return args[0], nil
}

func cmdOptimize(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("optimize", flag.ContinueOnError)
	n := fs.Int("n", 512, "grid size")
	st := fs.String("stencil", "5-point", "stencil name")
	sh := fs.String("shape", "square", "partition shape (strip|square)")
	machine := fs.String("machine", "sync-bus", "machine type or full machine-spec JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := core.ParseMachineArg(*machine)
	if err != nil {
		return fmt.Errorf("optimize: parse -machine: %w", err)
	}
	res, err := c.Optimize(ctx, client.OptimizeRequest{
		N: *n, Stencil: *st, Shape: *sh, Machine: spec,
	})
	if err != nil {
		return err
	}
	return printJSON(res)
}

// cmdLaws fetches the scaling-law overlay and prints it as a table
// (default) or raw JSON.
func cmdLaws(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("laws", flag.ContinueOnError)
	n := fs.Int("n", 512, "grid size")
	st := fs.String("stencil", "5-point", "stencil name")
	sh := fs.String("shape", "square", "partition shape (strip|square)")
	machine := fs.String("machine", "sync-bus", "machine type or full machine-spec JSON")
	procsFlag := fs.String("procs", "", "comma-separated processor axis (empty = server default)")
	asJSON := fs.Bool("json", false, "print the raw overlay JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := core.ParseMachineArg(*machine)
	if err != nil {
		return fmt.Errorf("laws: parse -machine: %w", err)
	}
	var procs []int
	if *procsFlag != "" {
		for _, part := range strings.Split(*procsFlag, ",") {
			q, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("laws: parse -procs %q: %w", part, err)
			}
			procs = append(procs, q)
		}
	}
	resp, err := c.Laws(ctx, client.LawsRequest{
		N: *n, Stencil: *st, Shape: *sh, Machine: spec, Procs: procs,
	})
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(resp)
	}
	fmt.Printf("%dx%d %s %s on %s: f=%.4g  T1/Tinf=%.4g  P*=%d (S*=%.4g)\n",
		resp.N, resp.N, resp.Stencil, resp.Shape, resp.Machine.Type,
		resp.SerialFraction, resp.CriticalPathRatio, resp.OptimalProcs, resp.OptimalSpeedup)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "PROCS\tMODEL\tAMDAHL\tGUSTAFSON\tCRIT-PATH")
	for _, pt := range resp.Points {
		fmt.Fprintf(tw, "%d\t%.4g\t%.4g\t%.4g\t%.4g\n",
			pt.Procs, pt.Model, pt.Amdahl, pt.Gustafson, pt.CriticalPath)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, d := range resp.Divergences {
		fmt.Printf("divergence at P=%d [%s]: %s\n", d.Procs, d.Kind, d.Detail)
	}
	return nil
}

func cmdSubmit(ctx context.Context, c *client.Client, args []string) error {
	req, _, err := readSweep(args, "submit")
	if err != nil {
		return err
	}
	job, err := c.SubmitSweep(ctx, req)
	if err != nil {
		return err
	}
	return printJSON(job)
}

func cmdStatus(ctx context.Context, c *client.Client, args []string) error {
	id, err := jobID(args, "status")
	if err != nil {
		return err
	}
	job, err := c.Job(ctx, id)
	if err != nil {
		return err
	}
	return printJSON(job)
}

func cmdWait(ctx context.Context, c *client.Client, args []string) error {
	id, err := jobID(args, "wait")
	if err != nil {
		return err
	}
	job, err := c.Wait(ctx, id)
	if err != nil {
		return err
	}
	return printJSON(job)
}

func cmdResults(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("results", flag.ContinueOnError)
	cursor := fs.String("cursor", "", "resume cursor from a previous page")
	limit := fs.Int("limit", 0, "page size (0 = server default)")
	follow := fs.Bool("follow", false, "keep reading until the job is terminal and fully read")
	// Accept "results JOB_ID -follow" as well as "results -follow JOB_ID":
	// a leading non-flag argument is the job id.
	var id string
	if len(args) > 0 && args[0] != "" && args[0][0] != '-' {
		id, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if id == "" {
		var err error
		id, err = jobID(fs.Args(), "results")
		if err != nil {
			return err
		}
	} else if len(fs.Args()) != 0 {
		return fmt.Errorf("results: unexpected arguments %v", fs.Args())
	}
	if *follow {
		if *limit != 0 {
			return fmt.Errorf("results: -limit sizes one page and does not combine with -follow")
		}
		it := c.JobResultsFrom(ctx, id, *cursor)
		for it.Next() {
			if err := printLine(it.Result()); err != nil {
				return err
			}
		}
		return it.Err()
	}
	page, err := c.Results(ctx, id, *cursor, *limit)
	if err != nil {
		return err
	}
	for _, r := range page.Results {
		if err := printLine(r); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "optcli: state=%s next_cursor=%s done=%v\n",
		page.State, page.NextCursor, page.Done)
	return nil
}

func cmdCancel(ctx context.Context, c *client.Client, args []string) error {
	id, err := jobID(args, "cancel")
	if err != nil {
		return err
	}
	job, err := c.Cancel(ctx, id)
	if err != nil {
		return err
	}
	return printJSON(job)
}

func cmdJobs(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("jobs", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit the job list as JSON instead of a table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(fs.Args()) != 0 {
		return fmt.Errorf("jobs: unexpected arguments %v", fs.Args())
	}
	jobs, err := c.Jobs(ctx)
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(jobs)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "ID\tKIND\tSTATE\tPROGRESS\tDURABLE\tCREATED")
	for _, j := range jobs {
		durable := "-"
		switch {
		case j.Recovered:
			durable = "recovered"
		case j.Persisted:
			durable = "persisted"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%d/%d\t%s\t%s\n",
			j.ID, j.Kind, j.State,
			j.Progress.Completed, j.Progress.Total,
			durable, j.CreatedAt.Format(time.RFC3339))
	}
	return w.Flush()
}

func cmdCluster(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit the cluster status as JSON instead of a table")
	add := fs.String("add", "", "admit a worker base URL into the live roster before reporting")
	remove := fs.String("remove", "", "evict a worker base URL from the live roster before reporting")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(fs.Args()) != 0 {
		return fmt.Errorf("cluster: unexpected arguments %v", fs.Args())
	}
	if *add != "" {
		if _, err := c.AddPeer(ctx, *add); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "optcli: added peer %s\n", *add)
	}
	if *remove != "" {
		if _, err := c.RemovePeer(ctx, *remove); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "optcli: removed peer %s\n", *remove)
	}
	st, err := c.Cluster(ctx)
	if err != nil {
		return err
	}
	if *asJSON {
		return printJSON(st)
	}
	fmt.Printf("mode=%s shard_size=%d\n", st.Mode, st.ShardSize)
	s := st.Shards
	fmt.Printf("shards: planned=%d retried=%d fallback=%d hedged=%d hedges_won=%d reclaimed=%d",
		s.ShardsPlanned, s.ShardsRetried, s.ShardsFallback,
		s.HedgesLaunched, s.HedgesWon, s.AttemptsReclaimed)
	if st.HedgeDelayMs > 0 {
		fmt.Printf(" hedge_delay_ms=%.1f", st.HedgeDelayMs)
	}
	fmt.Println()
	if len(st.Membership) > 0 {
		fmt.Print("membership:")
		for _, ev := range []string{"added", "removed", "suspected", "down", "readmitted"} {
			if n := st.Membership[ev]; n > 0 {
				fmt.Printf(" %s=%d", ev, n)
			}
		}
		fmt.Println()
	}
	if len(st.Peers) == 0 {
		return nil
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(w, "PEER\tSTATE\tBREAKER\tHEALTHY\tPROBE_MS\tOK\tFAILED\tLAST_ERROR")
	for _, p := range st.Peers {
		breaker := p.Breaker
		if p.BreakerRetryInMs > 0 {
			breaker = fmt.Sprintf("%s (retry %.0fms)", p.Breaker, p.BreakerRetryInMs)
		}
		lastErr := p.LastError
		if lastErr == "" {
			lastErr = "-"
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%v\t%.1f\t%d\t%d\t%s\n",
			p.URL, p.State, breaker, p.Healthy, p.ProbeMs, p.ShardsOK, p.ShardsFailed, lastErr)
	}
	return w.Flush()
}

func cmdStream(ctx context.Context, c *client.Client, args []string) error {
	req, _, err := readSweep(args, "stream")
	if err != nil {
		return err
	}
	st, err := c.StreamSweep(ctx, req)
	if err != nil {
		return err
	}
	defer st.Close()
	for st.Next() {
		if err := printLine(st.Result()); err != nil {
			return err
		}
	}
	if err := st.Err(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "optcli: stream done: %+v\n", *st.Stats())
	return nil
}
