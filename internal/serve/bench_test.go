package serve

import (
	"testing"

	"wavescalar/internal/testprogs"
)

// The three request classes of the repository benchmark's serve-mix
// workload, one request at a time over a loopback connection with the
// idempotency cache on, so that a CPU or allocation profile of the request
// path can be taken here:
//
//	go test -run '^$' -bench 'Simulate(Cold|Warm|Replay)' -cpuprofile cpu.out ./internal/serve

func benchServer(b *testing.B) (*Server, *Client) {
	b.Helper()
	cfg := DefaultConfig()
	cfg.TenantRate = 0
	cfg.CacheDir = b.TempDir()
	return newTestServer(b, cfg)
}

func benchSimulate(b *testing.B, client *Client, req SimulateRequest, wantCached bool) {
	b.Helper()
	if resp := mustSimulate(b, client, req); resp.Cached != wantCached {
		b.Fatalf("cached = %v, want %v", resp.Cached, wantCached)
	}
}

var benchGrids = []string{"2x2", "4x2", "3x3", "4x4"}

// BenchmarkSimulateCold: a program the server has never seen — compile,
// simulate, result put. The programs are serve-mix's cold set (the first
// 200 of the generated corpus at its seed), so a profile taken here splits
// the way the ledger's cold class does; once all have been asked for, the
// next request goes to a new server on an empty cache directory, as every
// serve-mix pass does.
func BenchmarkSimulateCold(b *testing.B) {
	var srcs []string
	for _, spec := range testprogs.CorpusSpecs(200, 1) {
		src, err := testprogs.GenerateSpec(spec)
		if err != nil {
			b.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	var client *Client
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(srcs) == 0 {
			b.StopTimer()
			_, client = benchServer(b)
			b.StartTimer()
		}
		benchSimulate(b, client, SimulateRequest{Source: srcs[i%len(srcs)], Grid: benchGrids[i%len(benchGrids)]}, false)
	}
}

// BenchmarkSimulateWarm: a compiled program under a configuration not yet
// asked for — compile-cache hit, simulate, result put. The grid changes
// with every request, as when a client sweeps it; max_cycles is part of
// the cache key and makes every request a new cell.
func BenchmarkSimulateWarm(b *testing.B) {
	s, client := benchServer(b)
	benchSimulate(b, client, SimulateRequest{Source: fastSrc}, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSimulate(b, client, SimulateRequest{Source: fastSrc, Grid: benchGrids[i%len(benchGrids)],
			MaxCycles: s.cfg.MaxCycles - 1 - int64(i)}, false)
	}
}

// BenchmarkSimulateReplay: an exact repeat — idempotency-cache get.
func BenchmarkSimulateReplay(b *testing.B) {
	_, client := benchServer(b)
	req := SimulateRequest{Source: fastSrc, Grid: "2x2"}
	benchSimulate(b, client, req, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSimulate(b, client, req, true)
	}
}
