package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"optspeed/internal/core"
	"optspeed/internal/jobs"
	"optspeed/internal/service"
	"optspeed/internal/store"
	"optspeed/internal/sweep"
)

// verify runs the post-phase correctness checks of the top two rungs:
//   - sweep-cold: every sampled response matches core, spec by spec;
//   - cluster-cold: every sampled response is byte-identical to a fresh
//     single node's response to the same body;
//   - jobs-durable: every job's pages hold exactly the results RunSync
//     returns for the same space.
//
// serve-warm's byte-identity check and the cold stats-line check run
// inline, per op (see doHTTP). verify returns how many ops failed and
// the first failure.
func (ex *runner) verify(timed []op, recs []opRec) (int, error) {
	var c checks
	if ex.r != rungHTTP && ex.r != rungHandler {
		return 0, nil
	}
	switch {
	case ex.b.w.durable:
		verifyJobs(timed, recs, &c)
	case ex.b.w.peers > 0:
		verifySingleNode(timed, recs, &c)
	default:
		for i := range timed {
			if timed[i].sample && timed[i].kind == kindSweep && timed[i].deck < 0 {
				if err := verifyAgainstCore(recs[i].body); err != nil {
					c.fail(i, err)
				}
			}
		}
	}
	return c.bad, c.first
}

// checks counts the ops that failed a check and keeps the first error.
type checks struct {
	bad   int
	first error
}

func (c *checks) fail(i int, err error) {
	if c.first == nil {
		c.first = fmt.Errorf("op %d: %w", i, err)
	}
	c.bad++
}

type wireResults struct {
	Results []service.SweepResultJSON `json:"results"`
}

// verifyAgainstCore decodes a cold optimize sweep and checks every
// allocation against core.Optimize on the same spec.
func verifyAgainstCore(body []byte) error {
	var resp wireResults
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	specs := make([]sweep.Spec, len(resp.Results))
	for k, r := range resp.Results {
		if r.Index != k || r.Error != "" {
			return fmt.Errorf("result %d: index %d, error %q", k, r.Index, r.Error)
		}
		specs[k] = r.Spec
	}
	want, err := coreEval(specs)
	if err != nil {
		return err
	}
	for k, r := range resp.Results {
		if r.Procs != want[k].procs || r.Speedup != want[k].value {
			return fmt.Errorf("result %d (%+v): procs %d speedup %v, core says %d %v",
				k, r.Spec, r.Procs, r.Speedup, want[k].procs, want[k].value)
		}
	}
	return nil
}

func verifySingleNode(timed []op, recs []opRec, c *checks) {
	single, err := startServer(serverConfig{}, false)
	if err != nil {
		c.fail(-1, err)
		return
	}
	defer single.close()
	h := handlerCaller{h: single.srv.Handler()}
	for i := range timed {
		if !timed[i].sample {
			continue
		}
		status, body, _, err := h.call(http.MethodPost, routes[timed[i].kind], timed[i].body)
		switch {
		case err != nil || status != http.StatusOK:
			c.fail(i, fmt.Errorf("single node: http %d: %v", status, err))
		case !bytes.Equal(body, recs[i].body):
			c.fail(i, errors.New("coordinator response differs from single node"))
		}
	}
}

// verifyJobs checks every job's pages against RunSync on a fresh
// in-memory jobs store. Pages hold results in completion order, so the
// comparison is by index.
func verifyJobs(timed []op, recs []opRec, c *checks) {
	ref := jobs.NewStore(jobs.Options{})
	defer ref.Close()
	for i := range timed {
		if err := jobPagesMatch(ref, &timed[i], recs[i].body); err != nil {
			c.fail(i, err)
		}
	}
}

func jobPagesMatch(ref *jobs.Store, o *op, body []byte) error {
	want, err := ref.RunSync(context.Background(), o.req)
	if err := resultsErr(want, err, o.req.Size()); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	got := make([]*service.SweepResultJSON, len(want))
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var page wireResults
		if err := json.Unmarshal(line, &page); err != nil {
			return fmt.Errorf("page: %w", err)
		}
		for k := range page.Results {
			r := &page.Results[k]
			if r.Index < 0 || r.Index >= len(got) || got[r.Index] != nil {
				return fmt.Errorf("result index %d repeated or out of range", r.Index)
			}
			got[r.Index] = r
		}
	}
	for k, w := range want {
		g := got[k]
		if g == nil {
			return fmt.Errorf("result %d missing from the pages", k)
		}
		if g.Spec != w.Spec || g.Value != w.Value || g.Error != "" {
			return fmt.Errorf("result %d: pages say %+v value %v, RunSync says %+v value %v",
				k, g.Spec, g.Value, w.Spec, w.Value)
		}
	}
	return nil
}

// recover closes the durable rig and reopens its directory, timing the
// replay and checking that exactly the submitted jobs come back, each
// succeeded with every result.
func (ex *runner) recover(timed []op, recs []opRec, warmIDs []string, c *counters) error {
	ex.rig.srv.close()
	ex.rig.srv = nil
	if err := ex.rig.wal.Close(); err != nil {
		return fmt.Errorf("close store: %w", err)
	}
	ex.rig.wal = nil
	start := time.Now()
	wal, recovered, err := store.Open(store.Options{Dir: ex.rig.dir, Fsync: store.FsyncInterval})
	c.recovery = time.Since(start)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	defer wal.Close()
	want := map[string]int{}
	for _, id := range warmIDs {
		want[id] = -1
	}
	for i := range recs {
		want[recs[i].jobID] = timed[i].req.Size()
	}
	if len(recovered) != len(want) {
		return fmt.Errorf("recovery: %d jobs back, %d submitted", len(recovered), len(want))
	}
	for _, j := range recovered {
		size, ok := want[j.ID]
		if !ok || j.State != jobs.StateSucceeded || (size >= 0 && len(j.Results) != size) {
			return fmt.Errorf("recovery: job %s (%s, %d results) was not submitted as such", j.ID, j.State, len(j.Results))
		}
		delete(want, j.ID)
	}
	c.recoveredJobs = len(recovered)
	return nil
}

// coreOut is one spec's answer from core.
type coreOut struct {
	procs int
	value float64
}

// coreEval is rung L4: the specs evaluated straight through core's
// public entry points, on as many goroutines as the engine has workers.
// Consecutive specs that differ only in Procs form one batch for the
// batched ops, as the engine's space path evaluates them.
func coreEval(specs []sweep.Spec) ([]coreOut, error) {
	out := make([]coreOut, len(specs))
	var groups [][2]int
	for lo := 0; lo < len(specs); {
		hi := lo + 1
		if batched(specs[lo].Op) {
			for hi < len(specs) && sameProblem(specs[lo], specs[hi]) {
				hi++
			}
		}
		groups = append(groups, [2]int{lo, hi})
		lo = hi
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, runtime.GOMAXPROCS(0))
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				g := int(next.Add(1)) - 1
				if g >= len(groups) {
					return
				}
				if err := coreGroup(specs[groups[g][0]:groups[g][1]], out[groups[g][0]:groups[g][1]]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func batched(op sweep.Op) bool {
	switch op {
	case sweep.OpSpeedup, sweep.OpAmdahl, sweep.OpGustafson, sweep.OpCriticalPath:
		return true
	}
	return false
}

func sameProblem(a, b sweep.Spec) bool {
	a.Procs, b.Procs = 0, 0
	return a == b
}

func coreGroup(specs []sweep.Spec, out []coreOut) error {
	s := specs[0]
	p, err := s.Problem()
	if err != nil {
		return err
	}
	arch, err := s.Machine.Machine()
	if err != nil {
		return err
	}
	if !batched(s.Op) {
		if s.Op != "" && s.Op != sweep.OpOptimize {
			return fmt.Errorf("core rung: op %q not supported", s.Op)
		}
		a, err := core.Optimize(p, arch)
		out[0] = coreOut{procs: a.Procs, value: a.Speedup}
		return err
	}
	procs := make([]int, len(specs))
	for k := range specs {
		procs[k] = specs[k].Procs
	}
	var vals []float64
	var errs []error
	switch s.Op {
	case sweep.OpAmdahl:
		vals, errs, err = core.AmdahlBatch(p, arch, procs)
	case sweep.OpGustafson:
		vals, errs, err = core.GustafsonBatch(p, arch, procs)
	case sweep.OpCriticalPath:
		vals, errs, err = core.CriticalPathBatch(p, arch, procs)
	default:
		vals, errs, err = core.SpeedupBatch(p, arch, procs)
	}
	if err != nil {
		return err
	}
	for k := range specs {
		if errs != nil && errs[k] != nil {
			return errs[k]
		}
		out[k] = coreOut{procs: procs[k], value: vals[k]}
	}
	return nil
}
