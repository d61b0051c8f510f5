package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wavescalar/internal/harness"
)

func mustSimulate(t testing.TB, client *Client, req SimulateRequest) *SimulateResponse {
	t.Helper()
	resp, apiErr, err := client.Simulate(context.Background(), req)
	if err != nil || apiErr != nil {
		t.Fatalf("simulate %+v: err=%v apiErr=%+v", req, err, apiErr)
	}
	return resp
}

// abandonedServer is a server that nothing drains: its process is taken to
// have been killed. What its handlers stored must be there all the same.
func abandonedServer(t *testing.T, cfg Config) *Client {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &Client{BaseURL: ts.URL, Tenant: "test", HTTPClient: ts.Client()}
}

// A replay sent the moment the first response arrives must hit: a result
// is stored before it is answered, and a hit does not wait for an fsync.
func TestReplayHitsAtOnce(t *testing.T) {
	cfg := testConfig()
	cfg.CacheDir = t.TempDir()
	s, client := newTestServer(t, cfg)
	for _, grid := range []string{"2x2", "4x2", "3x3", "4x4"} {
		req := SimulateRequest{Source: fastSrc, Grid: grid}
		first := mustSimulate(t, client, req)
		second := mustSimulate(t, client, req)
		if first.Cached || !second.Cached {
			t.Fatalf("grid %s: cached = %v then %v, want a miss then a hit", grid, first.Cached, second.Cached)
		}
		if mustJSON(t, first.Result) != mustJSON(t, second.Result) {
			t.Errorf("grid %s: replay not byte-identical:\n first: %s\nsecond: %s",
				grid, mustJSON(t, first.Result), mustJSON(t, second.Result))
		}
	}
	if st := s.cache.Stats(); st.UnsyncedRecords != 4 || st.Hits != 4 {
		t.Errorf("cache %+v: want 4 hits on 4 records none of which has been synced", st)
	}
}

// Drain makes everything stored durable: a new server on the same CacheDir
// replays every earlier request. So does the successor of a server that
// was never drained — a result outlives its process once it is answered.
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
	// Concurrent clients, so puts race each other.
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
	if st := s.cache.Stats(); st.UnsyncedRecords != 0 || st.Puts != int64(len(reqs)) {
		t.Errorf("after Drain the cache reads %+v", st)
	}

	replays := func(who string, client *Client) {
		t.Helper()
		for i, req := range reqs {
			resp := mustSimulate(t, client, req)
			if !resp.Cached {
				t.Errorf("request %d: not replayed by %s", i, who)
			}
			if got, want := mustJSON(t, resp.Result), mustJSON(t, first[i].Result); got != want {
				t.Errorf("request %d: replay by %s diverged\n got: %s\nwant: %s", i, who, got, want)
			}
		}
	}
	_, client2 := newTestServer(t, cfg)
	replays("the successor of a drained server", client2)

	extra := SimulateRequest{Source: fastSrc, Grid: "4x4", MemMode: "ideal"}
	reqs = append(reqs, extra)
	first = append(first, mustSimulate(t, abandonedServer(t, cfg), extra))
	_, client4 := newTestServer(t, cfg)
	replays("the successor of an abandoned server", client4)
}

// The crash argument: a result the machine lost before its segment was
// synced — the torn tail of the log — is simply computed again, to the
// byte-identical body.
func TestUnflushedResultResimulatesIdentically(t *testing.T) {
	cfg := testConfig()
	cfg.CacheDir = t.TempDir()
	s, client := newTestServer(t, cfg)

	kept := SimulateRequest{Source: fastSrc, Grid: "2x2"}
	lost := SimulateRequest{Workload: "gen:contention:5", Grid: "2x2", MemMode: "spec"}
	mustSimulate(t, client, kept)
	first := mustSimulate(t, client, lost)
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// The successor sees what a machine that crashed mid-write leaves: the
	// last record cut short.
	segs, err := filepath.Glob(filepath.Join(cfg.CacheDir, "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v (%v), want one", segs, err)
	}
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], info.Size()-40); err != nil {
		t.Fatal(err)
	}
	s2, client2 := newTestServer(t, cfg)
	if got := s2.cache.Corrupt(); got != 1 {
		t.Errorf("the successor counted %d torn records, want 1", got)
	}
	if !mustSimulate(t, client2, kept).Cached {
		t.Error("the torn tail took the record before it along")
	}
	again := mustSimulate(t, client2, lost)
	if again.Cached {
		t.Fatal("the successor replayed a torn record")
	}
	if got, want := mustJSON(t, again.Result), mustJSON(t, first.Result); got != want {
		t.Errorf("re-simulated body differs from the lost one:\n got: %s\nwant: %s", got, want)
	}
	if !mustSimulate(t, client2, lost).Cached {
		t.Error("the re-simulated result did not supersede the torn one")
	}
}

// /v1/stats says what the caches are doing, and Drain what its sync cost.
func TestStatsReportsCaches(t *testing.T) {
	var log bytes.Buffer
	cfg := testConfig()
	cfg.CacheDir = t.TempDir()
	cfg.Log = &log
	s, client := newTestServer(t, cfg)
	req := SimulateRequest{Source: fastSrc, Grid: "2x2"}
	mustSimulate(t, client, req)
	mustSimulate(t, client, req)
	if _, apiErr, err := client.Sweep(context.Background(), SweepRequest{N: 2, Seed: 3}); err != nil || apiErr != nil {
		t.Fatalf("sweep: err=%v apiErr=%+v", err, apiErr)
	}

	resp, err := client.httpClient().Get(client.BaseURL + "/v1/stats?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Cache map[string]harness.CacheStats `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sim, sweep := st.Cache["simulate"], st.Cache["sweep"]
	if sim.Records != 1 || sim.Segments != 1 || sim.Gets != 2 || sim.Hits != 1 || sim.Puts != 1 || sim.UnsyncedBytes != sim.Bytes || sim.Bytes == 0 {
		t.Errorf("simulate cache reads %+v after one miss and one replay", sim)
	}
	// RunCorpus syncs the sweep's cells before it answers.
	if sweep.Records != 2 || sweep.Puts != 2 || sweep.UnsyncedBytes != 0 {
		t.Errorf("sweep cache reads %+v after a two-cell sweep", sweep)
	}
	text, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"waved result caches", "simulate", "sweep", "unsynced-bytes"} {
		if !strings.Contains(text, want) {
			t.Errorf("stats page lacks %q:\n%s", want, text)
		}
	}

	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "drain: simulate cache: synced 1 records") {
		t.Errorf("Drain did not log its sync:\n%s", log.String())
	}
}
