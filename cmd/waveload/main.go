// Command waveload drives a running waved with a mixed, multi-tenant
// request stream and reports the outcome distribution and client-side
// latency — the same scenario mix the serve soak test asserts on, as a
// standalone tool for exercising a real deployment.
//
// Usage:
//
//	waveload [-addr http://localhost:8335] [-n 500] [-workers 32]
//	         [-tenants 4] [-deadline-ms 10000] [-slow-pct 10]
//	         [-cancel-pct 10] [-sweep-pct 10] [-stats]
//
// The mix: fast deterministic simulations across several binaries, grids,
// and memory modes (repeats exercise the server's idempotency cache),
// compile-only requests, bounded corpus sweeps, deadline-doomed slow
// simulations, and client-side disconnects. Every response must be either
// a success or a structured error; anything else (code "internal",
// unstructured bodies, transport failures against a live server) counts
// as a failure and makes waveload exit 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wavescalar/internal/serve"
	"wavescalar/internal/stats"
)

const (
	fastSrc = `
func main() {
	var s = 0;
	for var i = 0; i < 200; i = i + 1 {
		s = (s + i*i) & 0xFFFFF;
	}
	return s;
}`
	slowSrc = `
func main() {
	var s = 0;
	for var i = 0; i < 3000000; i = i + 1 {
		s = (s + i) & 0xFFFFF;
	}
	return s;
}`
)

func main() {
	addr := flag.String("addr", "http://localhost:8335", "waved base URL (host:port is accepted and assumed http)")
	n := flag.Int("n", 500, "total requests")
	workers := flag.Int("workers", 32, "concurrent client workers")
	tenants := flag.Int("tenants", 4, "distinct tenants to spread load across")
	deadlineMS := flag.Int64("deadline-ms", 10_000, "deadline for normal requests")
	slowPct := flag.Int("slow-pct", 10, "percent of requests that are deadline-doomed slow simulations")
	cancelPct := flag.Int("cancel-pct", 10, "percent of requests the client abandons after 20ms")
	sweepPct := flag.Int("sweep-pct", 10, "percent of requests that are bounded corpus sweeps")
	showStats := flag.Bool("stats", false, "fetch and print /v1/stats after the run")
	flag.Parse()
	if *n <= 0 || *workers <= 0 || *tenants <= 0 {
		fmt.Fprintln(os.Stderr, "waveload: -n, -workers, -tenants must be positive")
		os.Exit(2)
	}
	if !strings.Contains(*addr, "://") {
		*addr = "http://" + *addr
	}

	sims := []serve.SimulateRequest{
		{Source: fastSrc},
		{Source: fastSrc, Binary: "select", Grid: "2x2"},
		{Source: fastSrc, Binary: "rolled", Unroll: 1, MemMode: "serialized"},
		{Workload: "gen:pipeline:7", Grid: "2x2"},
		{Workload: "gen:contention:3", MemMode: "ideal"},
		{Source: fastSrc, Faults: "defect=0.1,drop=0.01", FaultSeed: 7},
	}

	var (
		counts   sync.Map // code or outcome name -> *atomic.Int64
		failures atomic.Int64
		latMu    sync.Mutex
		lats     []float64 // ms, successful requests only
		// The server's own account of each successful simulate request, and
		// the client-side latency of the same requests to set against it.
		simLats, queueMS, compileMS, simulateMS, handlerMS, restMS []float64
	)
	bump := func(k string) {
		v, _ := counts.LoadOrStore(k, new(atomic.Int64))
		v.(*atomic.Int64).Add(1)
	}
	recordLat := func(d time.Duration, sim *serve.SimulateResponse) {
		ms := float64(d.Microseconds()) / 1000
		latMu.Lock()
		lats = append(lats, ms)
		if sim != nil {
			simLats = append(simLats, ms)
			queueMS = append(queueMS, sim.QueueMS)
			compileMS = append(compileMS, sim.CompileMS)
			simulateMS = append(simulateMS, sim.SimulateMS)
			handlerMS = append(handlerMS, sim.ElapsedMS)
			restMS = append(restMS, ms-sim.QueueMS-sim.ElapsedMS)
		}
		latMu.Unlock()
	}
	// classify folds one request's outcome into the counters. A structured
	// error is expected under load; code "internal" or a transport error
	// against a live server is not.
	classify := func(apiErr *serve.ErrorResponse, err error, clientCancelled bool) {
		switch {
		case err != nil && clientCancelled:
			bump("client-cancelled")
		case err != nil:
			bump("transport-error")
			failures.Add(1)
			fmt.Fprintln(os.Stderr, "waveload:", err)
		case apiErr != nil:
			bump(apiErr.Code)
			if apiErr.Code == serve.CodeInternal {
				failures.Add(1)
				fmt.Fprintf(os.Stderr, "waveload: internal error: %s\n", apiErr.Error)
			}
		}
	}

	t0 := time.Now()
	var wg sync.WaitGroup
	next := make(chan int)
	go func() {
		for i := 0; i < *n; i++ {
			next <- i
		}
		close(next)
	}()
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &serve.Client{BaseURL: *addr, Tenant: fmt.Sprintf("load-%d", w%*tenants)}
			for i := range next {
				pct := i % 100
				switch {
				case pct < *cancelPct:
					ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
					_, apiErr, err := client.Simulate(ctx, serve.SimulateRequest{Source: slowSrc})
					cancel()
					classify(apiErr, err, true)
				case pct < *cancelPct+*slowPct:
					_, apiErr, err := client.Simulate(context.Background(),
						serve.SimulateRequest{Source: slowSrc, DeadlineMS: 100})
					classify(apiErr, err, false)
				case pct < *cancelPct+*slowPct+*sweepPct:
					start := time.Now()
					_, apiErr, err := client.Sweep(context.Background(),
						serve.SweepRequest{N: 3, Seed: 11, DeadlineMS: *deadlineMS})
					classify(apiErr, err, false)
					if err == nil && apiErr == nil {
						bump("ok-sweep")
						recordLat(time.Since(start), nil)
					}
				default:
					req := sims[i%len(sims)]
					req.DeadlineMS = *deadlineMS
					start := time.Now()
					resp, apiErr, err := client.Simulate(context.Background(), req)
					classify(apiErr, err, false)
					if err == nil && apiErr == nil {
						if resp.Cached {
							bump("ok-cached")
						} else {
							bump("ok")
						}
						recordLat(time.Since(start), resp)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(t0)

	t := stats.NewTable(fmt.Sprintf("waveload: %d requests, %d workers, %d tenants in %v (%.1f req/s)",
		*n, *workers, *tenants, elapsed.Round(time.Millisecond), float64(*n)/elapsed.Seconds()),
		"outcome", "count")
	var keys []string
	counts.Range(func(k, v any) bool { keys = append(keys, k.(string)); return true })
	sort.Strings(keys)
	for _, k := range keys {
		v, _ := counts.Load(k)
		t.AddRow(k, v.(*atomic.Int64).Load())
	}
	if len(lats) > 0 {
		sort.Float64s(lats)
		t.Note = fmt.Sprintf("client-side latency over %d successes: p50 %.1fms p99 %.1fms max %.1fms",
			len(lats), lats[len(lats)/2], lats[int(0.99*float64(len(lats)-1))], lats[len(lats)-1])
	}
	if len(simLats) > 0 {
		// The server's stages reconcile with the client's clock request by
		// request: the queue wait comes before the handler's clock starts,
		// compile and simulate are inside it, and what is left over is
		// transport, encoding and decoding.
		p50 := func(xs []float64) float64 { sort.Float64s(xs); return xs[len(xs)/2] }
		t.Note += fmt.Sprintf("\nsimulate p50 over %d successes: client %.3fms; server queue %.3fms, handler %.3fms (compile %.3fms, simulate %.3fms); client - queue - handler %.3fms",
			len(simLats), p50(simLats), p50(queueMS), p50(handlerMS), p50(compileMS), p50(simulateMS), p50(restMS))
	}
	fmt.Println(t.Render())

	if *showStats {
		body, err := (&serve.Client{BaseURL: *addr}).Stats(context.Background())
		if err != nil {
			fmt.Fprintln(os.Stderr, "waveload: stats:", err)
		} else {
			fmt.Println(body)
		}
	}
	if failures.Load() > 0 {
		fmt.Fprintf(os.Stderr, "waveload: %d unexpected failures\n", failures.Load())
		os.Exit(1)
	}
}
