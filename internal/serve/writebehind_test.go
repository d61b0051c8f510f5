package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// holdWriter swaps s's write-behind store for one with a queue of depth
// keys and no writer running yet, as if the writer were stuck in a slow
// fsync: results are accepted and stay pending. Call it before the first
// request. release starts the writer; the test's cleanup calls it too, so
// that the server's own cleanup (Drain) finds a writer to stop.
func holdWriter(t *testing.T, s *Server, depth int) (release func()) {
	t.Helper()
	s.results.close()
	rs := newResultStore(s.cache, depth, s.logf)
	s.results = rs
	var once sync.Once
	release = func() { once.Do(func() { go rs.run() }) }
	t.Cleanup(release)
	return release
}

func mustSimulate(t testing.TB, client *Client, req SimulateRequest) *SimulateResponse {
	t.Helper()
	resp, apiErr, err := client.Simulate(context.Background(), req)
	if err != nil || apiErr != nil {
		t.Fatalf("simulate %+v: err=%v apiErr=%+v", req, err, apiErr)
	}
	return resp
}

// onDisk reports whether req's result is in the CellCache itself, past the
// write-behind store.
func onDisk(t *testing.T, s *Server, req SimulateRequest) bool {
	t.Helper()
	sp, apiErr := s.normalizeSimulate(&req)
	if apiErr != nil {
		t.Fatal(apiErr.Error)
	}
	var res SimResult
	return s.cache.Get(sp.cacheKey(), &res)
}

// A replay sent the moment the first response arrives must hit even though
// the writer has not touched the result yet.
func TestReplayHitsWhileWriterHeld(t *testing.T) {
	cfg := testConfig()
	cfg.CacheDir = t.TempDir()
	s, client := newTestServer(t, cfg)
	release := holdWriter(t, s, writeBehindDepth)

	req := SimulateRequest{Source: fastSrc, Grid: "2x2"}
	first := mustSimulate(t, client, req)
	if first.Cached {
		t.Fatal("first request claims a cache hit on an empty cache")
	}
	if onDisk(t, s, req) {
		t.Fatal("the result reached the disk with the writer held: the put is still synchronous")
	}
	second := mustSimulate(t, client, req)
	if !second.Cached {
		t.Fatal("replay missed while its result was still pending")
	}
	if mustJSON(t, first.Result) != mustJSON(t, second.Result) {
		t.Errorf("pending replay not byte-identical:\n first: %s\nsecond: %s",
			mustJSON(t, first.Result), mustJSON(t, second.Result))
	}

	release()
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !onDisk(t, s, req) {
		t.Error("Drain returned with the result still not on disk")
	}
}

// Drain makes everything accepted durable: a new server on the same
// CacheDir replays every earlier request.
func TestDrainThenNewServerReplays(t *testing.T) {
	cfg := testConfig()
	cfg.CacheDir = t.TempDir()
	s, client := newTestServer(t, cfg)

	reqs := []SimulateRequest{
		{Source: fastSrc},
		{Source: fastSrc, Grid: "2x2"},
		{Source: fastSrc, Grid: "4x2", MemMode: "serialized"},
		{Source: fastSrc, Grid: "3x3", MemMode: "spec"},
		{Workload: "gen:pipeline:7", Grid: "2x2", MemMode: "ideal"},
	}
	// Concurrent clients, so puts race each other and the writer.
	first := make([]*SimulateResponse, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, apiErr, err := client.Simulate(context.Background(), reqs[i])
			if err != nil || apiErr != nil {
				t.Errorf("request %d: err=%v apiErr=%+v", i, err, apiErr)
				return
			}
			first[i] = resp
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	_, client2 := newTestServer(t, cfg)
	for i, req := range reqs {
		resp := mustSimulate(t, client2, req)
		if !resp.Cached {
			t.Errorf("request %d: not replayed by the successor server", i)
		}
		if got, want := mustJSON(t, resp.Result), mustJSON(t, first[i].Result); got != want {
			t.Errorf("request %d: successor's replay diverged\n got: %s\nwant: %s", i, got, want)
		}
	}
}

// With the queue full the handler writes its result itself: nothing is
// dropped, and nothing waits in memory beyond the queue.
func TestFullQueueFallsBackToSynchronousPut(t *testing.T) {
	cfg := testConfig()
	cfg.CacheDir = t.TempDir()
	s, client := newTestServer(t, cfg)
	release := holdWriter(t, s, 1)

	var reqs []SimulateRequest
	for _, grid := range []string{"2x2", "4x2", "3x3", "4x4"} {
		reqs = append(reqs, SimulateRequest{Source: fastSrc, Grid: grid})
	}
	first := make([]*SimulateResponse, len(reqs))
	for i, req := range reqs {
		first[i] = mustSimulate(t, client, req)
		// The first result took the queue's one place; every later one
		// found it full and must already be on disk.
		if got, want := onDisk(t, s, req), i > 0; got != want {
			t.Errorf("request %d: on disk = %v with the writer held, want %v", i, got, want)
		}
	}
	s.results.mu.Lock()
	pending := len(s.results.pending)
	s.results.mu.Unlock()
	if pending != 1 {
		t.Errorf("%d results pending behind a queue of 1", pending)
	}
	for i, req := range reqs {
		resp := mustSimulate(t, client, req)
		if !resp.Cached || mustJSON(t, resp.Result) != mustJSON(t, first[i].Result) {
			t.Errorf("request %d: replay missed or diverged (cached=%v)", i, resp.Cached)
		}
	}

	release()
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		if !onDisk(t, s, req) {
			t.Errorf("request %d lost: not on disk after Drain", i)
		}
	}
}

// The crash argument: a result accepted but never flushed is simply
// computed again, to the byte-identical body.
func TestUnflushedResultResimulatesIdentically(t *testing.T) {
	cfg := testConfig()
	cfg.CacheDir = t.TempDir()
	s, client := newTestServer(t, cfg)
	holdWriter(t, s, writeBehindDepth) // never released before the "crash"

	req := SimulateRequest{Workload: "gen:contention:5", Grid: "2x2", MemMode: "spec"}
	first := mustSimulate(t, client, req)

	// The successor sees what a process started after a crash would: the
	// directory without the lost queue.
	_, client2 := newTestServer(t, cfg)
	again := mustSimulate(t, client2, req)
	if again.Cached {
		t.Fatal("the successor replayed a result that was never flushed")
	}
	if got, want := mustJSON(t, again.Result), mustJSON(t, first.Result); got != want {
		t.Errorf("re-simulated body differs from the lost one:\n got: %s\nwant: %s", got, want)
	}
}

// Many clients asking for few keys: duplicate puts of one key, gets that
// race the writer's delete, and a close in the middle. Run under -race.
func TestResultStoreConcurrent(t *testing.T) {
	cfg := testConfig()
	cfg.CacheDir = t.TempDir()
	s, _ := newTestServer(t, cfg)
	rs := s.results

	key := func(k int) string { return fmt.Sprintf("%064x", k) }
	val := func(k int) SimResult { return SimResult{Value: int64(k), Cycles: int64(k) * 7} }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % 16
				rs.put(key(k), val(k))
				var got SimResult
				if !rs.get(key(k), &got) || got != val(k) {
					t.Errorf("key %d: get after put = %+v", k, got)
					return
				}
				if g == 0 && i == 100 {
					rs.close() // later puts take the synchronous path
				}
			}
		}()
	}
	wg.Wait()
	rs.close()
	if len(rs.pending) != 0 {
		t.Errorf("%d results still pending after close", len(rs.pending))
	}
	for k := 0; k < 16; k++ {
		var got SimResult
		if !s.cache.Get(key(k), &got) || got != val(k) {
			t.Errorf("key %d: on disk %+v, want %+v", k, got, val(k))
		}
	}
}
