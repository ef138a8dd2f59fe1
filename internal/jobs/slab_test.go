package jobs

import (
	"testing"
	"time"
	"unsafe"

	"optspeed/internal/core"
	"optspeed/internal/sweep"
)

// TestSlabAppendAllocBudget pins the store's per-result storage cost:
// appending a full slab's worth of results must allocate only the slab
// itself (plus the amortized growth of the outer slab index), i.e.
// O(results/SlabSize) — not one allocation per result.
func TestSlabAppendAllocBudget(t *testing.T) {
	j := newJob(KindSweep, time.Unix(0, 0), func() {})
	j.start(time.Unix(0, 0), 1<<20)
	chunk := make([]sweep.Result, 64)
	for i := range chunk {
		chunk[i] = sweep.Result{
			Spec: sweep.Spec{N: 256, Stencil: "5-point", Shape: "square",
				Machine: core.MachineSpec{Type: "sync-bus"}},
			Answer: sweep.Answer{Index: i, Value: float64(i)},
		}
	}
	// Each run appends SlabSize results in engine-sized chunks; the
	// budget is 2: the slab, plus the occasional doubling of the outer
	// [][]Answer index.
	allocs := testing.AllocsPerRun(64, func() {
		for k := 0; k < SlabSize/len(chunk); k++ {
			j.appendChunk(chunk)
		}
	})
	if allocs > 2 {
		t.Fatalf("appending %d results allocates %.1f, budget is 2 (one slab + index growth)", SlabSize, allocs)
	}
}

// TestSlabPagesAreSubslices verifies pagination is zero-copy whenever
// the range fits in one slab, stitches exact-limit pages across slab
// boundaries, and that walking NextCursor delivers every result
// exactly once in completion order.
func TestSlabPagesAreSubslices(t *testing.T) {
	j := newJob(KindSweep, time.Unix(0, 0), func() {})
	j.start(time.Unix(0, 0), 1000)
	j.appendAnswers(answers(0, 1000))

	j.mu.Lock()
	defer j.mu.Unlock()
	if want := (1000 + SlabSize - 1) / SlabSize; len(j.slabs) != want {
		t.Fatalf("1000 results landed in %d slabs, want %d", len(j.slabs), want)
	}
	// A within-slab page is the slab's own memory...
	p := j.page(0, SlabSize)
	if len(p) != SlabSize {
		t.Fatalf("page(0, slab) returned %d results, want %d", len(p), SlabSize)
	}
	if &p[0] != &j.slabs[0][0] {
		t.Fatal("within-slab page is not a subslice of its slab")
	}
	// ...a spanning page is stitched to the exact limit...
	p = j.page(SlabSize-10, 64)
	if len(p) != 64 || p[0].Index != SlabSize-10 || p[63].Index != SlabSize+53 {
		t.Fatalf("spanning page = %d results starting at %d", len(p), p[0].Index)
	}
	if &p[0] == &j.slabs[0][SlabSize-10] {
		t.Fatal("spanning page aliases a slab; it must be a stitched copy")
	}
	// ...a limit past the end clamps to the produced count...
	if p = j.page(0, MaxPageSize); len(p) != 1000 {
		t.Fatalf("page(0, max) returned %d results, want all 1000", len(p))
	}
	// ...and the cursor walk covers everything exactly once.
	seen := 0
	for cursor := 0; cursor < j.count; {
		page := j.page(cursor, 97)
		if len(page) != 97 && cursor+len(page) != j.count {
			t.Fatalf("short page mid-walk at cursor %d: %d results", cursor, len(page))
		}
		for k, r := range page {
			if r.Index != cursor+k {
				t.Fatalf("page at cursor %d holds index %d at offset %d", cursor, r.Index, k)
			}
		}
		seen += len(page)
		cursor += len(page)
	}
	if seen != 1000 {
		t.Fatalf("cursor walk delivered %d results, want 1000", seen)
	}
}

// TestPageStableUnderConcurrentAppend: a page handed out while the job
// keeps appending stays exactly as it was — append-only slabs never
// rewrite a delivered prefix (the race detector guards the memory-level
// claim in -race CI runs).
func TestPageStableUnderConcurrentAppend(t *testing.T) {
	j := newJob(KindSweep, time.Unix(0, 0), func() {})
	j.start(time.Unix(0, 0), 2*SlabSize)
	j.appendAnswers(answers(0, 100))
	j.mu.Lock()
	page := j.page(0, 100)
	j.mu.Unlock()

	done := make(chan struct{})
	go func() {
		defer close(done)
		rest := answers(100, SlabSize)
		for i := range rest {
			rest[i].Value = -1
		}
		j.appendAnswers(rest)
	}()
	for i, r := range page {
		if r.Index != i || r.Value != float64(i) {
			t.Fatalf("delivered page mutated at %d: %+v", i, r)
		}
	}
	<-done
	for i, r := range page {
		if r.Index != i || r.Value != float64(i) {
			t.Fatalf("page mutated after append at %d: %+v", i, r)
		}
	}
}

// answers returns n answers with indices from..from+n-1, each valued
// at its index.
func answers(from, n int) []sweep.Answer {
	out := make([]sweep.Answer, n)
	for i := range out {
		out[i] = sweep.Answer{Index: from + i, Value: float64(from + i)}
	}
	return out
}

// TestJobResultFootprint pins what a stored result costs: an answer
// fits in 128 bytes, and a job's last slab is sized to the results
// still due, so a completed 128-result job holds 128 answers of slab
// (16 KB), not a full SlabSize slab (32 KB).
func TestJobResultFootprint(t *testing.T) {
	if size := unsafe.Sizeof(sweep.Answer{}); size > 128 {
		t.Errorf("sweep.Answer is %d bytes, budget is 128", size)
	}
	slabBytes := func(j *Job) int {
		j.mu.Lock()
		defer j.mu.Unlock()
		n := 0
		for _, slab := range j.slabs {
			n += cap(slab) * int(unsafe.Sizeof(sweep.Answer{}))
		}
		return n
	}
	j := newJob(KindSweep, time.Unix(0, 0), func() {})
	j.start(time.Unix(0, 0), 128)
	for from := 0; from < 128; from += 64 {
		chunk := make([]sweep.Result, 64)
		for i := range chunk {
			chunk[i].Answer = sweep.Answer{Index: from + i}
		}
		j.appendChunk(chunk)
	}
	if got := slabBytes(j); got > 17<<10 {
		t.Errorf("a completed 128-result job holds %d B of slab, budget is %d", got, 17<<10)
	}
	// A job of SlabSize+3 results makes one full slab and a 3-answer
	// one; the page math is unchanged.
	j = newJob(KindSweep, time.Unix(0, 0), func() {})
	j.start(time.Unix(0, 0), SlabSize+3)
	j.appendAnswers(answers(0, SlabSize+3))
	j.mu.Lock()
	caps := []int{cap(j.slabs[0]), cap(j.slabs[1])}
	p := j.page(SlabSize-1, 4)
	j.mu.Unlock()
	if caps[0] != SlabSize || caps[1] != 3 {
		t.Errorf("slab capacities %v, want [%d 3]", caps, SlabSize)
	}
	if len(p) != 4 || p[0].Index != SlabSize-1 || p[3].Index != SlabSize+2 {
		t.Errorf("page across the short slab = %+v", p)
	}
}

// TestSlabOverflowingTotal: a job that receives more results than its
// progress total promised (the last slab was cut to the total) still
// stores and pages every one, and a page handed out before the overflow
// keeps its contents.
func TestSlabOverflowingTotal(t *testing.T) {
	j := newJob(KindSweep, time.Unix(0, 0), func() {})
	j.start(time.Unix(0, 0), 10)
	j.appendAnswers(answers(0, 10))
	j.mu.Lock()
	held := j.page(0, 10)
	j.mu.Unlock()
	j.appendAnswers(answers(10, SlabSize+5))
	j.mu.Lock()
	defer j.mu.Unlock()
	for cursor := 0; cursor < j.count; cursor += 7 {
		for k, r := range j.page(cursor, 7) {
			if r.Index != cursor+k {
				t.Fatalf("page at %d holds index %d at offset %d", cursor, r.Index, k)
			}
		}
	}
	for i, r := range held {
		if r.Index != i || r.Value != float64(i) {
			t.Fatalf("held page changed at %d: %+v", i, r)
		}
	}
}
