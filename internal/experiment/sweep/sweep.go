// Package sweep is the shared Monte-Carlo execution engine behind every
// figure driver in internal/experiment.
//
// A sweep is a fixed set of independent jobs (one per Monte-Carlo round,
// or per grid cell x round). The engine runs them on a worker pool and
// guarantees that the observable results are a pure function of the seed:
//
//   - Each job draws all of its randomness from an RNG derived as
//     rng.New(seed).Derive(label(i)). Derivation is stateless, so the
//     stream a job sees never depends on which worker ran it or in what
//     order.
//   - Job outputs land in a slice indexed by job number. Callers fold
//     metrics in index order, so floating-point accumulation (Welford
//     summaries are order-sensitive) is bit-identical at Workers=1 and
//     Workers=64.
//
// The engine also owns the operational concerns the hand-rolled pools it
// replaced each reimplemented: context cancellation (partial results stay
// usable), fail-fast errors that name the failing run, a progress
// callback with an ETA, and per-run wall-time and simulator-event
// statistics.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"mtmrp/internal/rng"
	"mtmrp/internal/stats"
)

// Progress is one observation of a sweep in flight. Done counts jobs that
// have finished for any reason (success, failure, or cancellation skip).
type Progress struct {
	Done, Total int
	Elapsed     time.Duration
	// ETA is the projected remaining wall time (0 when unknowable: no
	// jobs done yet, or the sweep is finished).
	ETA time.Duration
}

// ProgressFunc receives Progress updates. The engine invokes it from a
// single goroutine, strictly sequentially, once per finished job.
type ProgressFunc func(Progress)

// Job is the per-run context handed to the job function.
type Job struct {
	// Index is the job's position in [0, total).
	Index int
	// Label is the job's deterministic name (also its RNG derivation key
	// and its identity in error reports).
	Label string
	// RNG is the job's private random stream, derived from the sweep
	// seed and Label. All of the job's randomness must come from here.
	RNG *rng.RNG
	// State is the per-worker value built by Config.WorkerState (nil when
	// unset). Jobs on the same worker receive the same value, strictly
	// sequentially, so it can hold single-goroutine caches such as pooled
	// sessions. It must never influence the job's observable results.
	State any

	events uint64
}

// AddEvents folds simulator event counts into the sweep's observability
// stats (Stats.RunEvents). Jobs call it once per simulated session.
func (j *Job) AddEvents(n uint64) { j.events += n }

// JobError wraps a job failure with the run's identity.
type JobError struct {
	Index int
	Label string
	Err   error
}

// Error implements error.
func (e *JobError) Error() string {
	return fmt.Sprintf("run %q (job %d): %v", e.Label, e.Index, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// Stats reports what a sweep actually did. RunWall and RunEvents are
// observability-only (they accumulate in completion order, so their
// Summary is not worker-count-deterministic, unlike job results).
type Stats struct {
	Total     int // jobs submitted
	Completed int // jobs that returned a result
	Failed    int // jobs that returned an error
	Skipped   int // jobs never run (cancellation)
	Workers   int // pool size actually used
	Wall      time.Duration

	RunWall   stats.Summary // per-job wall time, seconds
	RunEvents stats.Summary // per-job simulator events (via Job.AddEvents)
}

// Outcome carries one job's result. Exactly one of Value / Err is
// meaningful: Err is non-nil for failed jobs and for jobs skipped after
// cancellation (where it is the context's error).
type Outcome[T any] struct {
	Value T
	Err   error
}

// Config parameterises the engine. The zero value runs on GOMAXPROCS
// workers with seed 0, no cancellation and no progress.
type Config struct {
	// Seed is the sweep's root seed; job i's RNG is
	// rng.New(Seed).Derive(label(i)).
	Seed uint64
	// Workers is the pool size (0 or negative = GOMAXPROCS).
	Workers int
	// Context cancels the sweep early; completed jobs stay usable.
	Context context.Context
	// Progress, when non-nil, observes the sweep (sequential calls).
	Progress ProgressFunc
	// WorkerState, when non-nil, runs once in each worker goroutine; its
	// return value is handed to every job that worker executes via
	// Job.State. Because job results must stay a pure function of the seed,
	// the state may only carry performance caches (reused allocations,
	// pooled sessions), never anything results depend on.
	WorkerState func() any
}

// PartialOK reports whether a Run error still left usable partial
// results: cancellation (context error) does, a failed job's abort does
// not promise anything.
func PartialOK(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Run executes total jobs through fn on the configured worker pool and
// returns the per-job outcomes in job order.
//
// label(i) names job i: it keys the job's RNG derivation and identifies
// the run in errors. Labels may repeat when two jobs must intentionally
// share a random stream (the tuning sweep pairs every (N, delta) cell on
// identical topology draws this way).
//
// The first failing job cancels the remaining ones, and Run returns the
// failure of the lowest job index, so the reported error is
// deterministic. On cancellation Run returns the context's error with
// every finished job's outcome intact; use PartialOK to distinguish usable
// partial results from a failed job's abort.
func Run[T any](cfg Config, total int, label func(int) string, fn func(ctx context.Context, job *Job) (T, error)) ([]Outcome[T], Stats, error) {
	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}
	st := Stats{Total: total, Workers: workers}
	outs := make([]Outcome[T], total)
	if total == 0 {
		return outs, st, ctx.Err()
	}

	// cctx additionally cancels on the first failure.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	root := rng.New(cfg.Seed)
	type done struct {
		idx    int
		wall   time.Duration
		events uint64
		err    error
		ran    bool
	}
	jobCh := make(chan int)
	doneCh := make(chan done, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ws any
			if cfg.WorkerState != nil {
				ws = cfg.WorkerState()
			}
			for i := range jobCh {
				if err := cctx.Err(); err != nil {
					outs[i].Err = err
					doneCh <- done{idx: i, err: err}
					continue
				}
				lb := label(i)
				// Derive reads the root's state without advancing it, so
				// concurrent derivations are race-free and the stream is
				// a pure function of (seed, label).
				job := &Job{Index: i, Label: lb, RNG: root.Derive(lb), State: ws}
				start := time.Now()
				v, err := fn(cctx, job)
				wall := time.Since(start)
				switch {
				case err == nil:
					outs[i].Value = v
					doneCh <- done{idx: i, wall: wall, events: job.events, ran: true}
				case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
					// fn surfaced the cancellation itself: a skip, not a
					// failure.
					outs[i].Err = err
					doneCh <- done{idx: i, err: err}
				default:
					outs[i].Err = &JobError{Index: i, Label: lb, Err: err}
					doneCh <- done{idx: i, wall: wall, events: job.events, err: outs[i].Err, ran: true}
				}
			}
		}()
	}
	go func() {
		// Every index is always submitted: workers ack cancelled jobs
		// cheaply, which keeps the done-accounting exact.
		for i := 0; i < total; i++ {
			jobCh <- i
		}
		close(jobCh)
		wg.Wait()
		close(doneCh)
	}()

	start := time.Now()
	var wallAcc, evAcc stats.Accumulator
	var failure *JobError
	seen := 0
	for d := range doneCh {
		seen++
		switch {
		case d.err == nil:
			st.Completed++
			wallAcc.Add(d.wall.Seconds())
			evAcc.Add(float64(d.events))
		case d.ran:
			st.Failed++
			var je *JobError
			errors.As(d.err, &je)
			if failure == nil || je.Index < failure.Index {
				failure = je
			}
			cancel()
		default:
			st.Skipped++
		}
		if cfg.Progress != nil {
			elapsed := time.Since(start)
			p := Progress{Done: seen, Total: total, Elapsed: elapsed}
			if seen < total {
				p.ETA = time.Duration(float64(elapsed) / float64(seen) * float64(total-seen))
			}
			cfg.Progress(p)
		}
	}
	st.Wall = time.Since(start)
	st.RunWall = wallAcc.Summary()
	st.RunEvents = evAcc.Summary()

	switch {
	case ctx.Err() != nil:
		// External cancellation outranks job failures: the caller asked
		// the sweep to stop and gets usable partial results.
		return outs, st, ctx.Err()
	case failure != nil:
		return outs, st, failure
	}
	return outs, st, nil
}
