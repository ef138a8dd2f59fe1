package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildDaemon compiles the real optspeedd binary once per test run.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "optspeedd")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// daemon is one spawned optspeedd process on a kernel-assigned port.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

// startDaemon launches the binary with -addr 127.0.0.1:0 and reads the
// resolved address out of the "optspeedd listening" log line.
func startDaemon(t *testing.T, bin, dataDir string, extra ...string) *daemon {
	t.Helper()
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-data-dir", dataDir,
		"-fsync", "always",
		"-snapshot-interval", "1h",
	}, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, `msg="optspeedd listening" addr=`); i >= 0 {
				addr := line[i+len(`msg="optspeedd listening" addr=`):]
				if j := strings.IndexByte(addr, ' '); j >= 0 {
					addr = addr[:j]
				}
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
		// Keep draining so the child never blocks on a full pipe.
		io.Copy(io.Discard, stderr)
	}()
	select {
	case addr := <-addrCh:
		return &daemon{cmd: cmd, base: "http://" + addr}
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("daemon did not log its listen address within 15s")
		return nil
	}
}

func (d *daemon) kill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d.cmd.Wait() // SIGKILL exit is expected; only reap the process
}

type wireJob struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Reason    string `json:"reason"`
	Recovered bool   `json:"recovered"`
	Persisted bool   `json:"persisted"`
	Progress  struct {
		Completed int `json:"completed"`
		Total     int `json:"total"`
	} `json:"progress"`
}

func httpJSON(t *testing.T, method, url, body string, out any) []byte {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode >= 300 {
		t.Fatalf("%s %s: http %d: %s", method, url, resp.StatusCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: %v in %s", method, url, err, raw)
		}
	}
	return raw
}

// readPages returns the raw concatenated results-page bodies of a
// terminal job — the unit that must be byte-identical across a crash.
func readPages(t *testing.T, base, id string) []byte {
	t.Helper()
	var buf bytes.Buffer
	cursor := "0"
	for page := 0; page < 1024; page++ {
		raw := httpJSON(t, http.MethodGet, base+"/v2/jobs/"+id+"/results?cursor="+cursor, "", nil)
		buf.Write(raw)
		var p struct {
			NextCursor string `json:"next_cursor"`
			Done       bool   `json:"done"`
		}
		if err := json.Unmarshal(raw, &p); err != nil {
			t.Fatal(err)
		}
		if p.Done {
			return buf.Bytes()
		}
		cursor = p.NextCursor
	}
	t.Fatalf("job %s: paging did not terminate", id)
	return nil
}

func waitState(t *testing.T, base, id string, want string) wireJob {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var job wireJob
		httpJSON(t, http.MethodGet, base+"/v2/jobs/"+id, "", &job)
		if job.State == want {
			return job
		}
		switch job.State {
		case "succeeded", "failed", "cancelled":
			t.Fatalf("job %s reached %q (reason %q), want %q", id, job.State, job.Reason, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after 30s, want %q", id, job.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCrashRecoveryOverSIGKILL is the durability acceptance test: a
// real daemon process is killed with SIGKILL mid-workload and restarted
// on the same data directory. Finished jobs must come back with
// byte-identical result pages, and the job that was mid-flight at the
// kill must resurface terminal with a restart reason — never silently
// dropped.
func TestCrashRecoveryOverSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real daemon")
	}
	bin := buildDaemon(t)
	dataDir := t.TempDir()
	d := startDaemon(t, bin, dataDir, "-workers", "1")

	// A few quick sweeps, driven to completion and snapshotted.
	const quickSweep = `{"sweep":{"space":{"ns":[64,128],"stencils":["5-point","9-point"],` +
		`"shapes":["strip","square"],"machines":[{"type":"sync-bus"},{"type":"mesh"}]}}}`
	var done []string
	pages := map[string][]byte{}
	for i := 0; i < 3; i++ {
		var job wireJob
		httpJSON(t, http.MethodPost, d.base+"/v2/jobs", quickSweep, &job)
		if !job.Persisted {
			t.Fatalf("job %s not marked persisted on a durable server", job.ID)
		}
		done = append(done, job.ID)
	}
	for _, id := range done {
		waitState(t, d.base, id, "succeeded")
		pages[id] = readPages(t, d.base, id)
	}

	// One slow job left mid-flight: wait for real progress so its start
	// record (and at least one chunk) is on disk, then SIGKILL. The job
	// is a cold space of 1365 grid sizes times every stencil, shape and
	// machine type (65,520 optimize specs) on the one-worker pool.
	var slowNs strings.Builder
	for i := 0; i < 1365; i++ {
		if i > 0 {
			slowNs.WriteByte(',')
		}
		fmt.Fprintf(&slowNs, "%d", 4096+i)
	}
	slowSweep := `{"sweep":{"space":{"ns":[` + slowNs.String() +
		`],"stencils":["5-point","9-point","9-star","13-point"],"shapes":["strip","square"],` +
		`"machines":[{"type":"hypercube"},{"type":"mesh"},{"type":"sync-bus"},` +
		`{"type":"async-bus"},{"type":"full-async-bus"},{"type":"banyan"}]}}}`
	var slow wireJob
	httpJSON(t, http.MethodPost, d.base+"/v2/jobs", slowSweep, &slow)
	deadline := time.Now().Add(30 * time.Second)
	for {
		var job wireJob
		httpJSON(t, http.MethodGet, d.base+"/v2/jobs/"+slow.ID, "", &job)
		if job.Progress.Completed > 0 && job.Progress.Completed < job.Progress.Total {
			break
		}
		if job.State != "pending" && job.State != "running" {
			t.Fatalf("slow job reached %q before the kill", job.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("slow job made no progress in 30s")
		}
		time.Sleep(time.Millisecond)
	}
	d.kill(t)

	// Restart on the same directory.
	d2 := startDaemon(t, bin, dataDir)
	defer d2.kill(t)

	for _, id := range done {
		var job wireJob
		httpJSON(t, http.MethodGet, d2.base+"/v2/jobs/"+id, "", &job)
		if job.State != "succeeded" || !job.Recovered || !job.Persisted {
			t.Fatalf("job %s recovered as state=%q recovered=%v persisted=%v",
				id, job.State, job.Recovered, job.Persisted)
		}
		if got := readPages(t, d2.base, id); !bytes.Equal(got, pages[id]) {
			t.Fatalf("job %s pages diverged across SIGKILL: %d vs %d bytes",
				id, len(pages[id]), len(got))
		}
	}
	var mid wireJob
	httpJSON(t, http.MethodGet, d2.base+"/v2/jobs/"+slow.ID, "", &mid)
	if mid.State != "failed" || !strings.Contains(mid.Reason, "restart") {
		t.Fatalf("mid-flight job recovered as state=%q reason=%q, want failed with a restart reason",
			mid.State, mid.Reason)
	}
	if !mid.Recovered {
		t.Fatal("mid-flight job not flagged recovered")
	}
	// The results it persisted before the kill are real allocations.
	var page struct {
		Results []struct {
			Procs int    `json:"procs"`
			Error string `json:"error"`
		} `json:"results"`
	}
	httpJSON(t, http.MethodGet, d2.base+"/v2/jobs/"+slow.ID+"/results", "", &page)
	allocated := 0
	for _, r := range page.Results {
		if r.Procs > 0 && r.Error == "" {
			allocated++
		}
	}
	if allocated == 0 {
		t.Fatalf("mid-flight job recovered %d results, none with an allocation", len(page.Results))
	}
}
