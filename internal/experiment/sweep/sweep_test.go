package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func labels(prefix string) func(int) string {
	return func(i int) string { return fmt.Sprintf("%s-%d", prefix, i) }
}

// TestDeterministicRNGAcrossWorkers is the engine's core guarantee: the
// random stream a job sees depends only on (seed, label), never on the
// worker pool size or scheduling.
func TestDeterministicRNGAcrossWorkers(t *testing.T) {
	const total = 64
	draw := func(workers int) []uint64 {
		outs, st, err := Run(Config{Seed: 42, Workers: workers}, total, labels("job"),
			func(_ context.Context, j *Job) (uint64, error) {
				return j.RNG.Uint64(), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if st.Completed != total {
			t.Fatalf("workers=%d: completed %d of %d", workers, st.Completed, total)
		}
		vals := make([]uint64, total)
		for i, o := range outs {
			vals[i] = o.Value
		}
		return vals
	}
	one := draw(1)
	for _, w := range []int{2, 8, 16} {
		got := draw(w)
		for i := range one {
			if got[i] != one[i] {
				t.Fatalf("workers=%d job %d: stream diverged (%d vs %d)", w, i, got[i], one[i])
			}
		}
	}
}

// TestSameLabelSameStream: duplicate labels intentionally share a stream
// (how the tuning sweep pairs cells on identical topology draws).
func TestSameLabelSameStream(t *testing.T) {
	outs, _, err := Run(Config{Seed: 7}, 4,
		func(int) string { return "shared" },
		func(_ context.Context, j *Job) (uint64, error) { return j.RNG.Uint64(), nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(outs); i++ {
		if outs[i].Value != outs[0].Value {
			t.Fatalf("job %d drew %d, job 0 drew %d from the same label", i, outs[i].Value, outs[0].Value)
		}
	}
}

func TestCancellationMidSweep(t *testing.T) {
	const total = 100
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	outs, st, err := Run(Config{Workers: 4, Context: ctx}, total, labels("job"),
		func(jctx context.Context, j *Job) (int, error) {
			if started.Add(1) == 10 {
				cancel()
			}
			// Give the cancellation time to reach the pool.
			time.Sleep(time.Millisecond)
			return j.Index, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !PartialOK(err) {
		t.Error("cancellation should report usable partial results")
	}
	if st.Completed == 0 {
		t.Error("no jobs completed before cancellation")
	}
	if st.Skipped == 0 {
		t.Error("no jobs skipped after cancellation")
	}
	if st.Completed+st.Failed+st.Skipped != total {
		t.Errorf("accounting: %d+%d+%d != %d", st.Completed, st.Failed, st.Skipped, total)
	}
	for i, o := range outs {
		if o.Err == nil && o.Value != i {
			t.Errorf("job %d: completed with wrong value %d", i, o.Value)
		}
		if o.Err != nil && !errors.Is(o.Err, context.Canceled) {
			t.Errorf("job %d: unexpected error %v", i, o.Err)
		}
	}
}

func TestDeadlinePartial(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, st, err := Run(Config{Workers: 2, Context: ctx}, 1000, labels("job"),
		func(context.Context, *Job) (int, error) {
			time.Sleep(time.Millisecond)
			return 0, nil
		})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if !PartialOK(err) {
		t.Error("deadline should report usable partial results")
	}
	if st.Skipped == 0 {
		t.Error("expected skipped jobs after the deadline")
	}
}

func TestFailFastPolicy(t *testing.T) {
	const total = 50
	boom := errors.New("boom")
	_, st, err := Run(Config{Workers: 1}, total, labels("run"),
		func(_ context.Context, j *Job) (int, error) {
			if j.Index == 3 {
				return 0, boom
			}
			return j.Index, nil
		})
	var je *JobError
	if !errors.As(err, &je) || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want JobError wrapping boom", err)
	}
	if je.Index != 3 || je.Label != "run-3" {
		t.Errorf("failure identity: %+v", je)
	}
	if want := `run "run-3" (job 3): boom`; err.Error() != want {
		t.Errorf("Error() = %q, want %q", err.Error(), want)
	}
	if PartialOK(err) {
		t.Error("fail-fast abort must not claim usable partial results")
	}
	// The cancel lands asynchronously (the collector goroutine issues it),
	// so a few in-flight jobs may still complete — but the bulk of the
	// sweep must be skipped, and the accounting must stay exact.
	if st.Completed+st.Failed+st.Skipped != total {
		t.Errorf("accounting: %+v does not sum to %d", st, total)
	}
	if st.Failed != 1 {
		t.Errorf("failed = %d, want 1", st.Failed)
	}
	if st.Skipped < total-10 {
		t.Errorf("skipped = %d, want nearly all of %d", st.Skipped, total)
	}
}

// TestFailFastReportsLowestIndex: under parallelism, several jobs can fail
// before the cancel lands; the reported failure must be the lowest-index
// job that actually failed — not whichever failure reached the collector
// first. Which jobs run before the cancel is scheduler-dependent (a job
// already dequeued can still be skipped by the pre-dispatch ctx check),
// so the oracle is computed from the outcomes rather than pinned to 0.
func TestFailFastReportsLowestIndex(t *testing.T) {
	boom := errors.New("boom")
	outs, _, err := Run(Config{Workers: 8}, 32, labels("run"),
		func(_ context.Context, j *Job) (int, error) {
			return 0, fmt.Errorf("%w at %d", boom, j.Index)
		})
	var je *JobError
	if !errors.As(err, &je) {
		t.Fatalf("err = %v", err)
	}
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want to wrap boom", err)
	}
	lowest := -1
	for i := range outs {
		var oe *JobError
		if errors.As(outs[i].Err, &oe) {
			lowest = i
			break
		}
	}
	if lowest == -1 {
		t.Fatal("no job failure recorded in outcomes")
	}
	if je.Index != lowest {
		t.Errorf("reported failure index %d, want %d (lowest that failed)", je.Index, lowest)
	}
}

func TestProgressAndStats(t *testing.T) {
	const total = 10
	var calls []Progress
	_, st, err := Run(Config{Workers: 3, Progress: func(p Progress) { calls = append(calls, p) }},
		total, labels("job"),
		func(_ context.Context, j *Job) (int, error) {
			j.AddEvents(100)
			return 0, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != total {
		t.Fatalf("progress calls = %d, want %d", len(calls), total)
	}
	for i, p := range calls {
		if p.Done != i+1 || p.Total != total {
			t.Errorf("call %d: %+v", i, p)
		}
	}
	if last := calls[len(calls)-1]; last.ETA != 0 {
		t.Errorf("final ETA = %v, want 0", last.ETA)
	}
	if st.RunEvents.N != total || st.RunEvents.Mean != 100 {
		t.Errorf("RunEvents = %+v", st.RunEvents)
	}
	if st.RunWall.N != total {
		t.Errorf("RunWall.N = %d", st.RunWall.N)
	}
	if st.Workers != 3 || st.Wall <= 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestZeroJobs(t *testing.T) {
	outs, st, err := Run(Config{}, 0, labels("job"),
		func(context.Context, *Job) (int, error) { return 0, nil })
	if err != nil || len(outs) != 0 || st.Total != 0 {
		t.Fatalf("outs=%v st=%+v err=%v", outs, st, err)
	}
}
