package serve

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wavescalar/internal/harness"
)

// TestSoak drives the service the way a bad day does: hundreds of
// concurrent mixed requests from multiple tenants through a deliberately
// undersized server (4 slots, tiny queue, tight rate limits), with
// deadline-doomed slow simulations and client-side disconnects mixed in,
// finishing with a drain under load. It asserts the robustness contract
// end to end:
//
//   - every 200 is byte-identical to a direct harness run of the same
//     request (including idempotency-cache replays);
//   - every failure is a structured, expected error — 429 rate_limited,
//     503 over_capacity/draining, 504 deadline — never invalid, fault, or
//     internal;
//   - the injected overload actually sheds (the test fails if no 429/503
//     was ever produced — an accidentally infinite queue would pass a
//     weaker test);
//   - drain finishes within budget+grace with in-flight work cancelled;
//   - no goroutines leak and heap stays bounded.
//
// `make soak` runs this under -race.
func TestSoak(t *testing.T) {
	const (
		workers = 64
		tenants = 5
	)
	opsPerWorker := 8 // 512 requests
	if testing.Short() {
		opsPerWorker = 3
	}

	baseline := runtime.NumGoroutine()

	cfg := DefaultConfig()
	cfg.TenantRate = 150
	cfg.TenantBurst = 25
	cfg.MaxConcurrent = 4
	cfg.MaxQueue = 4
	cfg.DefaultDeadline = 30 * time.Second
	cfg.MaxDeadline = 60 * time.Second
	cfg.DrainGrace = 10 * time.Second
	cfg.CacheDir = t.TempDir()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The deterministic simulate scenarios, with expected results computed
	// by the harness directly — no serve code involved.
	simReqs := []SimulateRequest{
		{Source: fastSrc},
		{Source: fastSrc, Binary: "select", Grid: "2x2"},
		{Source: fastSrc, Binary: "rolled", Unroll: 1, MemMode: "serialized"},
		{Workload: "gen:pipeline:7", Grid: "2x2"},
		{Workload: "gen:contention:3", MemMode: "ideal"},
		{Workload: "gen:contention:9", MemMode: "spec"},
		{Source: fastSrc, Faults: "defect=0.1,drop=0.01", FaultSeed: 7},
	}
	want := make([]string, len(simReqs))
	for i, req := range simReqs {
		want[i] = mustJSON(t, directResult(t, req, cfg.MaxCycles))
	}
	wantSweep, err := harness.RunCorpus(harness.CorpusOptions{
		N: 3, Seed: 11,
		Compile: harness.DefaultCompileOptions(),
		Machine: harness.DefaultCorpusMachine(),
	})
	if err != nil {
		t.Fatal(err)
	}

	var (
		okCount, cachedCount, sweepOK           atomic.Int64
		rateLimited, shed, deadlined, clientCut atomic.Int64
		failures                                atomic.Int64
	)
	fail := func(format string, args ...any) {
		failures.Add(1)
		t.Errorf(format, args...)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &Client{
				BaseURL:    ts.URL,
				Tenant:     fmt.Sprintf("tenant-%d", w%tenants),
				HTTPClient: ts.Client(),
			}
			for k := 0; k < opsPerWorker; k++ {
				op := (w*opsPerWorker + k) % 10
				ctx := context.Background()
				switch {
				case op < 6: // deterministic simulations (and cache replays)
					req := simReqs[op]
					resp, apiErr, err := client.Simulate(ctx, req)
					switch {
					case err != nil:
						fail("worker %d op %d: transport: %v", w, k, err)
					case apiErr != nil:
						switch apiErr.Code {
						case CodeRateLimited:
							rateLimited.Add(1)
						case CodeOverCapacity:
							shed.Add(1)
						default:
							fail("worker %d op %d: unexpected error %+v", w, k, apiErr)
						}
					default:
						if got := mustJSON(t, resp.Result); got != want[op] {
							fail("worker %d op %d: result diverged from direct harness\n got: %s\nwant: %s",
								w, k, got, want[op])
						}
						if resp.Cached {
							cachedCount.Add(1)
						} else {
							okCount.Add(1)
						}
					}
				case op == 6: // compile
					resp, apiErr, err := client.Compile(ctx, CompileRequest{Workload: "fft"})
					switch {
					case err != nil:
						fail("worker %d op %d: transport: %v", w, k, err)
					case apiErr != nil:
						if apiErr.Code != CodeRateLimited && apiErr.Code != CodeOverCapacity {
							fail("worker %d op %d: unexpected error %+v", w, k, apiErr)
						}
					case resp.Checksum == 0:
						fail("worker %d op %d: compile returned zero checksum", w, k)
					}
				case op == 7: // bounded sweep (cached after the first)
					resp, apiErr, err := client.Sweep(ctx, SweepRequest{N: 3, Seed: 11})
					switch {
					case err != nil:
						fail("worker %d op %d: transport: %v", w, k, err)
					case apiErr != nil:
						if apiErr.Code != CodeRateLimited && apiErr.Code != CodeOverCapacity {
							fail("worker %d op %d: unexpected error %+v", w, k, apiErr)
						}
					default:
						if resp.Table != wantSweep.Table.Render() {
							fail("worker %d op %d: sweep table diverged from direct RunCorpus", w, k)
						}
						sweepOK.Add(1)
					}
				case op == 8: // deadline-doomed slow simulation
					_, apiErr, err := client.Simulate(ctx,
						SimulateRequest{Source: slowSrc, DeadlineMS: 100})
					switch {
					case err != nil:
						fail("worker %d op %d: transport: %v", w, k, err)
					case apiErr == nil:
						fail("worker %d op %d: slow simulation finished under a 100ms deadline", w, k)
					default:
						switch apiErr.Code {
						case CodeDeadline:
							deadlined.Add(1)
						case CodeRateLimited:
							rateLimited.Add(1)
						case CodeOverCapacity:
							shed.Add(1)
						default:
							fail("worker %d op %d: unexpected error %+v", w, k, apiErr)
						}
					}
				default: // client walks away mid-request
					cctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
					resp, apiErr, err := client.Simulate(cctx, SimulateRequest{Source: slowSrc})
					cancel()
					switch {
					case err != nil: // transport aborted by the client's own context: expected
						clientCut.Add(1)
					case apiErr != nil:
						if apiErr.Code != CodeRateLimited && apiErr.Code != CodeOverCapacity {
							fail("worker %d op %d: unexpected error %+v", w, k, apiErr)
						}
					default:
						fail("worker %d op %d: slow simulation finished in 20ms: %+v", w, k, resp)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if okCount.Load()+cachedCount.Load() == 0 {
		t.Error("soak produced no successful simulations")
	}
	if rateLimited.Load()+shed.Load() == 0 {
		t.Error("injected overload produced no 429/503: admission control never engaged")
	}
	if deadlined.Load() == 0 {
		t.Error("no request was cut by its deadline")
	}
	if s.agg.Runs() == 0 {
		t.Error("no simulation runs reached the server-wide metrics aggregate")
	}
	t.Logf("soak: ok=%d cached=%d sweeps=%d rate-limited=%d shed=%d deadlined=%d client-cut=%d",
		okCount.Load(), cachedCount.Load(), sweepOK.Load(),
		rateLimited.Load(), shed.Load(), deadlined.Load(), clientCut.Load())

	// Drain under load: slow simulations in flight (compile is warm by
	// now, so they are inside the simulator's event loop), then SIGTERM
	// semantics — budget expires, in-flight work is cancelled, everything
	// unwinds within grace.
	drainCtx, drainCancelReqs := context.WithCancel(context.Background())
	defer drainCancelReqs()
	var slowWG sync.WaitGroup
	for i := 0; i < cfg.MaxConcurrent; i++ {
		slowWG.Add(1)
		go func() {
			defer slowWG.Done()
			client := &Client{BaseURL: ts.URL, Tenant: "drain-tenant", HTTPClient: ts.Client()}
			_, apiErr, err := client.Simulate(drainCtx, SimulateRequest{Source: slowSrc, DeadlineMS: 30_000})
			if err == nil && apiErr != nil && apiErr.Code != CodeDraining && apiErr.Code != CodeDeadline {
				fail("drain-phase request: unexpected error %+v", apiErr)
			}
		}()
	}
	waitUntil := time.Now().Add(10 * time.Second)
	for len(s.slots) < cfg.MaxConcurrent {
		if time.Now().After(waitUntil) {
			t.Fatal("drain-phase slow requests did not occupy the slots")
		}
		time.Sleep(time.Millisecond)
	}
	t0 := time.Now()
	if err := s.Drain(300 * time.Millisecond); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if el := time.Since(t0); el > 300*time.Millisecond+cfg.DrainGrace {
		t.Errorf("drain took %v, over budget+grace", el)
	}
	slowWG.Wait()

	// Flushing metrics after drain must render without panicking and show
	// every tenant.
	table := s.StatsTable().Render()
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		if !strings.Contains(table, name) {
			t.Errorf("stats table missing %s:\n%s", name, table)
		}
	}

	ts.Close()

	// No goroutine leaks: everything the soak spawned — handlers, workers,
	// background compiles, janitor — must unwind. Allow a settle window;
	// background compiles of the slow program take seconds under -race.
	var now int
	for end := time.Now().Add(60 * time.Second); ; {
		runtime.GC()
		now = runtime.NumGoroutine()
		if now <= baseline+2 || time.Now().After(end) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if now > baseline+2 {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutine leak: %d at start, %d after soak\n%s",
			baseline, now, buf[:runtime.Stack(buf, true)])
	}

	// Bounded memory: after GC the live heap must be far below anything a
	// leak of 500+ requests' arenas or results would produce.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > 1<<30 {
		t.Errorf("live heap %d bytes after soak; memory is not bounded", ms.HeapAlloc)
	}
}
