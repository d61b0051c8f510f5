package serve

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"wavescalar/internal/harness"
	"wavescalar/internal/parallel"
)

// TestCompileCacheRecoversPanic: build runs on a goroutine of the cache's
// own, which net/http does not recover. A panic there — raised by build
// itself, or re-raised into it from a stage goroutine the way
// harness.CompileSource's parallel.Group does — must come back to every
// waiter as an error, promptly, and leave the key free to be built again.
func TestCompileCacheRecoversPanic(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel() // a waiter left hanging fails with the context's error, not the test's timeout

	for _, tc := range []struct {
		name  string
		build func() (*harness.Compiled, error)
	}{
		{"build", func() (*harness.Compiled, error) { panic("boom") }},
		{"stage", func() (*harness.Compiled, error) {
			var g parallel.Group
			g.Go(func() {})
			g.Go(func() { panic("boom") })
			g.Wait()
			t.Error("Wait returned past a stage panic")
			return nil, nil
		}},
	} {
		cc := newCompileCache(4)
		// The first get's build holds until the others have been started
		// against its entry; one that arrives late instead builds, and
		// panics, on its own, which the checks below cover as well.
		started, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		var wg sync.WaitGroup
		errs := make([]error, 4)
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _, errs[i] = cc.get(ctx, "k", "", func() (*harness.Compiled, error) {
					once.Do(func() { close(started) })
					<-release
					return tc.build()
				})
			}()
			<-started
		}
		close(release)
		wg.Wait()
		for i, err := range errs {
			var bp *buildPanic
			if !errors.As(err, &bp) || bp.value != "boom" || len(bp.stack) == 0 {
				t.Errorf("%s: waiter %d: err = %v, want the recovered panic", tc.name, i, err)
			}
		}
		if n := cc.Len(); n != 0 {
			t.Errorf("%s: %d entries left behind by the panicked build", tc.name, n)
		}
		want := &harness.Compiled{Name: tc.name}
		c, hit, err := cc.get(ctx, "k", "", func() (*harness.Compiled, error) { return want, nil })
		if c != want || hit || err != nil {
			t.Errorf("%s: get after the panic = %v, hit %v, err %v; want a fresh build", tc.name, c, hit, err)
		}
	}

	// At the API a compiler panic is the server's fault, any other failed
	// build the request's.
	s, _ := newTestServer(t, testConfig())
	defer s.StopJanitor()
	if e := s.compileError(ctx, &buildPanic{value: "boom"}); e.Code != CodeInternal || e.Status != http.StatusInternalServerError {
		t.Errorf("compiler panic reported as %+v", e)
	}
	if e := s.compileError(ctx, errors.New("syntax")); e.Code != CodeInvalid {
		t.Errorf("compile error reported as %+v", e)
	}
}
