package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForEachRunsEveryJob(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 100
			hits := make([]int32, n)
			err := ForEach(workers, n, func(i int) error {
				atomic.AddInt32(&hits[i], 1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("job %d ran %d times", i, h)
				}
			}
		})
	}
}

func TestForEachCollectsByIndex(t *testing.T) {
	const n = 64
	out := make([]int, n)
	if err := ForEach(8, n, func(i int) error {
		out[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestForEachZeroJobs(t *testing.T) {
	if err := ForEach(4, 0, func(int) error { t.Fatal("job ran"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachSequentialErrorIsFirst(t *testing.T) {
	boom := errors.New("boom")
	var ran []int
	err := ForEach(1, 10, func(i int) error {
		ran = append(ran, i)
		if i >= 3 {
			return fmt.Errorf("job %d: %w", i, boom)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if len(ran) != 4 {
		t.Fatalf("sequential mode ran %v, want stop after first error", ran)
	}
}

func TestForEachParallelReturnsLowestIndexError(t *testing.T) {
	// Every job fails; the reported error must be the lowest-index one
	// among those recorded, and with every job failing, job 0 always runs
	// (workers claim indices in order), so the answer is deterministic.
	err := ForEach(8, 32, func(i int) error {
		return fmt.Errorf("job %d failed", i)
	})
	if err == nil || err.Error() != "job 0 failed" {
		t.Fatalf("err = %v, want job 0 failed", err)
	}
}

func TestForEachStopsClaimingAfterError(t *testing.T) {
	var ran atomic.Int64
	_ = ForEach(2, 1<<20, func(i int) error {
		ran.Add(1)
		return errors.New("fail fast")
	})
	if n := ran.Load(); n >= 1<<20 {
		t.Fatalf("ran all %d jobs despite early error", n)
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer func() {
				if r := recover(); r != "kaboom" {
					t.Fatalf("recovered %v, want kaboom", r)
				}
			}()
			_ = ForEach(workers, 8, func(i int) error {
				if i == 5 {
					panic("kaboom")
				}
				return nil
			})
			t.Fatal("ForEach returned instead of panicking")
		})
	}
}

func TestMapOrdersResults(t *testing.T) {
	out, err := Map(8, 50, func(i int) (string, error) {
		return fmt.Sprintf("cell-%d", i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 50 {
		t.Fatalf("len = %d", len(out))
	}
	for i, v := range out {
		if v != fmt.Sprintf("cell-%d", i) {
			t.Fatalf("slot %d = %q", i, v)
		}
	}
}

func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	if _, err := Map(4, 10, func(i int) (int, error) {
		if i == 2 {
			return 0, boom
		}
		return i, nil
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers = %d", DefaultWorkers())
	}
}

func TestForEachCtxCancellationStopsClaiming(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 10_000
			ctx, cancel := context.WithCancel(context.Background())
			var ran atomic.Int64
			release := make(chan struct{})
			err := ForEachCtx(ctx, workers, n, func(i int) error {
				if ran.Add(1) == int64(workers) {
					// Every worker is mid-job: cancel, then let them finish.
					cancel()
					close(release)
				}
				<-release
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// Already-running jobs finish; nothing new is claimed after the
			// cancellation is observed. Allow one extra claim per worker for
			// the race between cancel() and the next claim check.
			if got := ran.Load(); got > int64(2*workers) {
				t.Fatalf("%d jobs ran after cancellation with %d workers", got, workers)
			}
		})
	}
}

func TestForEachCtxJobErrorBeatsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("boom")
	err := ForEachCtx(ctx, 1, 4, func(i int) error {
		if i == 1 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want job error to take precedence", err)
	}
}

func TestForEachCtxDoneBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := ForEachCtx(ctx, 4, 100, func(i int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got > 4 {
		t.Fatalf("%d jobs ran with a pre-cancelled context", got)
	}
}

func TestMapCtxCompletesWithoutCancellation(t *testing.T) {
	out, err := MapCtx(context.Background(), 4, 32, func(i int) (int, error) { return i * 2, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*2 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// TestGroupWaitsForEveryFunction: Wait returns once everything started has
// finished, results travelling in variables each function owns; a second
// round of Go and Wait on the same Group works the same way.
func TestGroupWaitsForEveryFunction(t *testing.T) {
	var g Group
	g.Wait() // nothing started
	var out [5]int
	for round := 1; round <= 2; round++ {
		for i := range out {
			g.Go(func() { out[i] += round * (i + 1) })
		}
		g.Wait()
		for i, v := range out {
			if want := (i + 1) * round * (round + 1) / 2; v != want {
				t.Fatalf("round %d: out[%d] = %d, want %d", round, i, v, want)
			}
		}
	}
}

// TestGroupPanicSurfacesOnWaiter: ForEach's contract — the panic is raised
// on the waiting goroutine, after every other function has finished, and of
// two the one started first wins.
func TestGroupPanicSurfacesOnWaiter(t *testing.T) {
	var finished atomic.Bool
	release := make(chan struct{})
	defer func() {
		if r := recover(); r != "first" {
			t.Fatalf("recovered %v, want first", r)
		}
		if !finished.Load() {
			t.Error("Wait re-raised the panic before the slow function finished")
		}
	}()
	var g Group
	g.Go(func() { <-release; panic("first") })
	g.Go(func() { defer close(release); panic("second") })
	g.Go(func() { <-release; finished.Store(true) })
	g.Wait()
	t.Fatal("Wait returned instead of panicking")
}
