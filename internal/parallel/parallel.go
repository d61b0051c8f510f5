// Package parallel is the bounded worker pool the experiment harness fans
// independent simulation cells across. Its contract is deterministic
// aggregation: callers declare an indexed set of jobs, workers execute them
// in arbitrary order, and every result lands in the slot named by its
// index — never by completion order — so output built from the collected
// slots is bit-identical to a sequential run.
//
// Jobs must be independent: they may not share mutable state (RNGs,
// placement policies, memory images) unless that state is written only
// through the job's own index. Seeds must be derived per job from fixed
// roots, never drawn from a shared generator, or determinism is lost.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the worker count used when a caller passes workers <= 0:
// one worker per available CPU.
func DefaultWorkers() int { return runtime.NumCPU() }

// panicError carries a worker panic back to the calling goroutine so the
// crash surfaces with ForEach in the trace rather than killing the process
// from an anonymous worker.
type panicError struct {
	index int
	value any
}

func (p *panicError) Error() string {
	return fmt.Sprintf("parallel: job %d panicked: %v", p.index, p.value)
}

// ForEach runs jobs 0..n-1 across min(workers, n) goroutines and waits for
// completion. workers <= 0 selects DefaultWorkers(); workers == 1 degrades
// to a plain sequential loop on the calling goroutine.
//
// Error semantics: after the first failure, workers stop claiming new jobs
// (already-running jobs finish), and ForEach returns the error with the
// LOWEST index among those recorded. On an error-free run the behavior is
// fully deterministic; when jobs fail, which later jobs were skipped can
// vary, but harness errors are fatal to the whole sweep, so only the
// error-free path carries the determinism guarantee.
//
// A panicking job is recovered on its worker and re-panicked from ForEach
// on the calling goroutine once all workers have drained.
func ForEach(workers, n int, job func(i int) error) error {
	return ForEachCtx(context.Background(), workers, n, job)
}

// ForEachCtx is ForEach with cooperative cancellation: once ctx is done,
// workers stop claiming new jobs (already-running jobs finish — jobs that
// want mid-run cancellation must watch ctx themselves) and ForEachCtx
// returns ctx's error. A job error recorded before the cancellation was
// observed takes precedence, with the usual lowest-index rule; cancellation
// shares the non-determinism caveat of job failures — which later jobs were
// skipped can vary between runs.
func ForEachCtx(ctx context.Context, workers, n int, job func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := runJob(job, i); err != nil {
				if pe, ok := err.(*panicError); ok {
					panic(pe.value)
				}
				return err
			}
		}
		return nil
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	done := ctx.Done()
	errs := make([]error, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if done != nil {
					select {
					case <-done:
						return
					default:
					}
				}
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := runJob(job, i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			if pe, ok := err.(*panicError); ok {
				panic(pe.value)
			}
			return err
		}
	}
	return ctx.Err()
}

// runJob invokes one job, converting a panic into a panicError.
func runJob(job func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{index: i, value: r}
		}
	}()
	return job(i)
}

// Map runs f over 0..n-1 on the pool and collects the results into a slice
// indexed by job number, independent of completion order.
func Map[T any](workers, n int, f func(i int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), workers, n, f)
}

// MapCtx is Map with cooperative cancellation (see ForEachCtx).
func MapCtx[T any](ctx context.Context, workers, n int, f func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachCtx(ctx, workers, n, func(i int) error {
		v, err := f(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Group is spawn-and-wait for a handful of different functions, where
// ForEach is for many calls of one: Go starts f on a goroutine of its own
// and Wait returns once every function started so far has. It keeps
// ForEach's panic contract — a panicking function is recovered on its
// goroutine and the panic re-raised by Wait on the waiting goroutine, after
// all of them have finished; of several, the earliest started wins.
//
// Go and Wait are called from the one goroutine that owns the Group, whose
// zero value is ready to use. What the functions return travels in
// variables each writes alone and the owner reads after Wait.
type Group struct {
	wg     sync.WaitGroup
	panics []*any // one cell per Go call, written by that goroutine alone
}

// Go runs f on a new goroutine.
func (g *Group) Go(f func()) {
	cell := new(any)
	g.panics = append(g.panics, cell)
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer func() { *cell = recover() }()
		f()
	}()
}

// Wait blocks until every function started by Go has returned, then
// re-raises the first one's panic, if any did.
func (g *Group) Wait() {
	g.wg.Wait()
	for _, cell := range g.panics {
		if *cell != nil {
			panic(*cell)
		}
	}
}
