package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"wavescalar"
	"wavescalar/internal/harness"
	"wavescalar/internal/wavecache"
)

// fastSrc finishes in a few thousand simulated cycles. slowSrc compiles
// in ~1s (compilation executes the program on the AST evaluator and the
// linear emulator, so it cannot be arbitrarily long) but simulates for
// roughly ten seconds of wall clock — in these tests it only ever ends by
// cancellation.
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

// testConfig is a small, deterministic serving configuration: no rate
// limiting (tests that want 429s set TenantRate themselves), generous
// deadlines, two slots.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.TenantRate = 0
	cfg.MaxConcurrent = 2
	cfg.MaxQueue = 8
	cfg.DefaultDeadline = 30 * time.Second
	cfg.MaxDeadline = 60 * time.Second
	return cfg
}

func newTestServer(t testing.TB, cfg Config) (*Server, *Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	// Drain closes the caches' segments, before a CacheDir from t.TempDir()
	// (registered earlier, so removed later) is deleted.
	t.Cleanup(func() {
		ts.Close()
		if err := s.Drain(5 * time.Second); err != nil {
			t.Errorf("cleanup: %v", err)
		}
	})
	return s, &Client{BaseURL: ts.URL, Tenant: "test", HTTPClient: ts.Client()}
}

// requestOptions spells a request out as the harness options it stands
// for, by hand rather than through normalizeSimulate: an omitted field is
// the harness default, and the server's watchdog cap applies unless the
// request tightens it.
func requestOptions(t *testing.T, req SimulateRequest, maxCycles int64) (name, src string, co harness.CompileOptions, m harness.MachineOptions) {
	t.Helper()
	name, src = req.Workload, req.Source
	if name == "" {
		name = "inline"
	}
	if src == "" {
		src = harnessWorkload(t, name)
	}
	co = harness.DefaultCompileOptions()
	if req.Unroll != 0 {
		co.Unroll = req.Unroll
	}
	if req.Opt != nil {
		co.OptLevel = *req.Opt
	}
	m = harness.DefaultMachineOptions()
	if req.Grid != "" {
		if _, err := fmt.Sscanf(req.Grid, "%dx%d", &m.GridW, &m.GridH); err != nil {
			t.Fatal(err)
		}
	}
	if req.Policy != "" {
		m.Policy = req.Policy
	}
	m.MaxCycles = maxCycles
	if req.MaxCycles != 0 {
		m.MaxCycles = min(maxCycles, req.MaxCycles)
	}
	var err error
	if m.MemMode, err = wavecache.ParseMemoryMode(req.MemMode); err != nil {
		t.Fatal(err)
	}
	m.Faults, m.FaultSeed = req.Faults, req.FaultSeed
	return name, src, co, m
}

// directResult computes the expected SimResult for a request with the
// harness directly — no serve code in the loop — mirroring exactly what a
// standalone harness user would do. Byte-identity between this and the
// served result is the service's core correctness contract.
func directResult(t *testing.T, req SimulateRequest, maxCycles int64) SimResult {
	t.Helper()
	name, src, co, m := requestOptions(t, req, maxCycles)
	c, err := harness.CompileSource(name, src, co)
	if err != nil {
		t.Fatal(err)
	}
	prog := c.Wave
	switch req.Binary {
	case "select":
		prog = c.WaveSel
	case "rolled":
		prog = c.WaveNoUn
	}
	cfg, pol, err := m.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := harness.RunWave(c, prog, pol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return SimResult{
		Value:        res.Value,
		UsefulInstrs: c.UsefulInstrs,
		Cycles:       res.Cycles,
		AIPC:         harness.AIPC(c.UsefulInstrs, res.Cycles),
		Fired:        res.Fired,
		Tokens:       res.Tokens,
		Swaps:        res.Swaps,
		Overflows:    res.Overflows,
		PEsUsed:      res.PEsUsed,
		MemoryOps:    res.Order.Loads + res.Order.Stores,
		NetMessages:  res.Net.Messages,
	}
}

// publicResult runs a request through the public API: wavescalar.Compile,
// whose CompileConfig names the binary by how it is compiled (the rolled one
// is the steer one at unroll 1), and Simulate, whose SimConfig is mapped onto
// MachineOptions. The fields are the ones SimResult shares with
// wavescalar.SimResult.
func publicResult(t *testing.T, req SimulateRequest, maxCycles int64) SimResult {
	t.Helper()
	_, src, co, m := requestOptions(t, req, maxCycles)
	cc := wavescalar.CompileConfig{Unroll: co.Unroll, OptLevel: co.OptLevel, UseSelect: req.Binary == "select"}
	if req.Binary == "rolled" {
		cc.Unroll = 1
	}
	prog, err := wavescalar.Compile(src, cc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Simulate(wavescalar.SimConfig{
		GridW: m.GridW, GridH: m.GridH,
		Placement:  req.Policy,
		MemoryMode: req.MemMode,
		MaxCycles:  m.MaxCycles,
		Faults:     req.Faults,
		FaultSeed:  req.FaultSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return SimResult{
		Value: res.Value, Cycles: res.Cycles, Fired: res.Fired, Tokens: res.Tokens,
		Swaps: res.Swaps, Overflows: res.Overflows, PEsUsed: res.PEsUsed,
		MemoryOps: res.MemoryOps, NetMessages: res.NetworkMessages,
	}
}

func harnessWorkload(t *testing.T, name string) string {
	t.Helper()
	c, err := harness.Suite([]string{name}, harness.DefaultCompileOptions())
	if err != nil {
		t.Fatal(err)
	}
	return c[0].Src
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestSimulateMatchesDirectHarness(t *testing.T) {
	srvCfg := testConfig()
	s, client := newTestServer(t, srvCfg)
	defer s.StopJanitor()

	o0 := 0
	reqs := []SimulateRequest{
		{Source: fastSrc},
		{Source: fastSrc, Binary: "select"},
		{Source: fastSrc, Binary: "rolled", Unroll: 1},
		// At the default unroll of 4 the rolled binary is lowered from a
		// second IR; at unroll 1 above it is the steer binary.
		{Source: fastSrc, Binary: "rolled"},
		// A program the memory tier changes (110 -> 105 memory operations),
		// at the default level and with the tier off.
		{Workload: "ammp"},
		{Workload: "ammp", Opt: &o0},
		{Source: fastSrc, Grid: "2x2", MemMode: "serialized"},
		{Source: fastSrc, MemMode: "ideal", Metrics: true},
		{Source: fastSrc, MemMode: "spec"},
		{Workload: "gen:contention:5", Grid: "2x2", MemMode: "spec"},
		{Workload: "gen:pipeline:7", Grid: "2x2"},
		{Source: fastSrc, Faults: "defect=0.1,drop=0.005", FaultSeed: 42},
		// Every request-settable field away from its default at once.
		{Workload: "gen:pipeline:7", Binary: "select", Grid: "3x2", Unroll: 2, Opt: &o0, MemMode: "spec",
			Policy: "packed-random", MaxCycles: 40_000_000, Faults: "drop=0.01,retries=9", FaultSeed: 7},
	}
	var ammp []SimResult
	for i, req := range reqs {
		resp, apiErr, err := client.Simulate(context.Background(), req)
		if err != nil || apiErr != nil {
			t.Fatalf("req %d: err=%v apiErr=%+v", i, err, apiErr)
		}
		if req.Workload == "ammp" {
			ammp = append(ammp, resp.Result)
		}
		want := directResult(t, req, srvCfg.MaxCycles)
		if got, wantJSON := mustJSON(t, resp.Result), mustJSON(t, want); got != wantJSON {
			t.Errorf("req %d: served result diverged from direct harness run\n got: %s\nwant: %s", i, got, wantJSON)
		}
		// The public API reports no useful-instruction count; everything
		// else it shares with the other two doors must agree.
		want.UsefulInstrs, want.AIPC = 0, 0
		if got := publicResult(t, req, srvCfg.MaxCycles); got != want {
			t.Errorf("req %d: wavescalar.Simulate diverged from direct harness run\n got: %+v\nwant: %+v", i, got, want)
		}
		if req.Metrics && resp.MetricsTable == "" {
			t.Errorf("req %d: metrics requested but no metrics table", i)
		}
	}
	// The comparison above tells the optimization levels apart only if they
	// yield different results for some program in the table.
	if len(ammp) != 2 || ammp[0].MemoryOps >= ammp[1].MemoryOps {
		t.Errorf("ammp at the default level and at opt 0: %+v; want fewer memory operations at the default", ammp)
	}
}

// TestSimulateCompilesTheNamedBinary: a simulate request compiles the one
// dataflow binary it names, under a compile-cache entry of its own; a
// /v1/compile entry holds all three and serves every later simulation of
// the program; and whichever entry a request lands on, its result is the
// direct harness run's.
func TestSimulateCompilesTheNamedBinary(t *testing.T) {
	srvCfg := testConfig()
	s, client := newTestServer(t, srvCfg)
	defer s.StopJanitor()
	ctx := context.Background()
	simulate := func(req SimulateRequest) {
		t.Helper()
		resp := mustSimulate(t, client, req)
		if got, want := mustJSON(t, resp.Result), mustJSON(t, directResult(t, req, srvCfg.MaxCycles)); got != want {
			t.Errorf("%+v: served result diverged from direct harness run\n got: %s\nwant: %s", req, got, want)
		}
	}
	cacheState := func(what string, wantLen int, wantHits uint64) {
		t.Helper()
		if l, h := s.compiled.Len(), s.compiled.Hits(); l != wantLen || h != wantHits {
			t.Errorf("%s: compile cache holds %d entries after %d hits, want %d and %d", what, l, h, wantLen, wantHits)
		}
	}

	// One source, one binary at a time: three compiles, three entries.
	for i, bin := range harness.BinaryNames {
		simulate(SimulateRequest{Source: fastSrc, Binary: bin})
		cacheState(bin, i+1, uint64(i)) // the hits are the lookups below
		key := compileKey(fastSrc, harness.DefaultCompileOptions())
		c, hit, err := s.compiled.get(ctx, key, bin, func() (*harness.Compiled, error) {
			return nil, fmt.Errorf("the %s entry is not resident", bin)
		})
		if err != nil || !hit {
			t.Fatalf("%s: hit=%v err=%v", bin, hit, err)
		}
		for _, other := range harness.BinaryNames {
			if _, err := c.Binary(other); (err == nil) != (other == bin) {
				t.Errorf("entry compiled for %s: Binary(%q) err = %v", bin, other, err)
			}
		}
	}
	// A second steer request, for a cell not yet simulated, compiles nothing.
	simulate(SimulateRequest{Source: fastSrc, Grid: "2x2"})
	cacheState("second steer request", 3, 4)

	// Compile, then simulate each binary: one compile, three hits.
	src2 := strings.Replace(fastSrc, "i < 200", "i < 150", 1)
	if _, apiErr, err := client.Compile(ctx, CompileRequest{Source: src2}); err != nil || apiErr != nil {
		t.Fatalf("compile: err=%v apiErr=%+v", err, apiErr)
	}
	cacheState("compile", 4, 4)
	for _, bin := range harness.BinaryNames {
		simulate(SimulateRequest{Source: src2, Binary: bin})
	}
	cacheState("simulate after compile", 4, 7)

	// Different binaries of one uncompiled program, asked for at once.
	src3 := strings.Replace(fastSrc, "i < 200", "i < 120", 1)
	var wg sync.WaitGroup
	for _, bin := range harness.BinaryNames {
		req := SimulateRequest{Source: src3, Binary: bin}
		want := directResult(t, req, srvCfg.MaxCycles)
		for twin := 0; twin < 2; twin++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, apiErr, err := client.Simulate(ctx, req)
				if err != nil || apiErr != nil {
					t.Errorf("concurrent %s: err=%v apiErr=%+v", bin, err, apiErr)
				} else if resp.Result != want {
					t.Errorf("concurrent %s: served %+v, direct harness %+v", bin, resp.Result, want)
				}
			}()
		}
	}
	wg.Wait()
	cacheState("concurrent binaries", 7, 10) // one compile per binary, the twin of each waits on it
}

func TestSimulateIdempotentReplay(t *testing.T) {
	cfg := testConfig()
	cfg.CacheDir = t.TempDir()
	s, client := newTestServer(t, cfg)
	defer s.StopJanitor()

	req := SimulateRequest{Source: fastSrc, Grid: "2x2"}
	first, apiErr, err := client.Simulate(context.Background(), req)
	if err != nil || apiErr != nil {
		t.Fatalf("first: err=%v apiErr=%+v", err, apiErr)
	}
	if first.Cached {
		t.Fatal("first request claims a cache hit on an empty cache")
	}
	second, apiErr, err := client.Simulate(context.Background(), req)
	if err != nil || apiErr != nil {
		t.Fatalf("second: err=%v apiErr=%+v", err, apiErr)
	}
	if !second.Cached {
		t.Fatal("retry of an identical request did not replay from the idempotency cache")
	}
	if mustJSON(t, first.Result) != mustJSON(t, second.Result) {
		t.Errorf("cached replay not byte-identical:\n first: %s\nsecond: %s",
			mustJSON(t, first.Result), mustJSON(t, second.Result))
	}
	// A different tenant shares the result: idempotency is content-keyed,
	// not tenant-keyed (results are pure functions of the request).
	other := *client
	other.Tenant = "other"
	third, apiErr, err := other.Simulate(context.Background(), req)
	if err != nil || apiErr != nil {
		t.Fatalf("third: err=%v apiErr=%+v", err, apiErr)
	}
	if !third.Cached || mustJSON(t, third.Result) != mustJSON(t, first.Result) {
		t.Error("cross-tenant replay missed or diverged")
	}
}

func TestRateLimiting(t *testing.T) {
	cfg := testConfig()
	cfg.TenantRate = 1
	cfg.TenantBurst = 2
	now := time.Unix(1_000_000, 0)
	cfg.now = func() time.Time { return now } // frozen clock: no refills
	s, client := newTestServer(t, cfg)
	defer s.StopJanitor()

	req := SimulateRequest{Source: fastSrc}
	for i := 0; i < 2; i++ {
		if _, apiErr, err := client.Simulate(context.Background(), req); err != nil || apiErr != nil {
			t.Fatalf("burst request %d rejected: err=%v apiErr=%+v", i, err, apiErr)
		}
	}
	_, apiErr, err := client.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if apiErr == nil || apiErr.Code != CodeRateLimited || apiErr.Status != 429 {
		t.Fatalf("expected 429 rate_limited, got %+v", apiErr)
	}
	if apiErr.RetryAfterMS <= 0 {
		t.Errorf("429 without a retry hint: %+v", apiErr)
	}
	// A different tenant has its own bucket and is unaffected.
	other := *client
	other.Tenant = "other"
	if _, apiErr, err := other.Simulate(context.Background(), req); err != nil || apiErr != nil {
		t.Fatalf("other tenant hit by this tenant's bucket: err=%v apiErr=%+v", err, apiErr)
	}
}

// holdAllSlots fills every concurrency slot with slow simulations and
// returns once they are running (admitted, occupying slots), plus a
// cancel to release them.
func holdAllSlots(t *testing.T, s *Server, client *Client) (release func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < s.cfg.MaxConcurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Cancellation by the client context ends these; any outcome is
			// fine — they exist to occupy slots.
			client.Simulate(ctx, SimulateRequest{Source: slowSrc, DeadlineMS: 30_000})
		}()
	}
	// Wait until every slot is taken.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.slots) < s.cfg.MaxConcurrent {
		if time.Now().After(deadline) {
			t.Fatal("slow requests did not occupy all slots in time")
		}
		time.Sleep(time.Millisecond)
	}
	return func() { cancel(); wg.Wait() }
}

func TestOverCapacitySheds(t *testing.T) {
	cfg := testConfig()
	cfg.MaxConcurrent = 1
	cfg.MaxQueue = 0
	s, client := newTestServer(t, cfg)
	defer s.StopJanitor()

	release := holdAllSlots(t, s, client)
	defer release()

	_, apiErr, err := client.Simulate(context.Background(), SimulateRequest{Source: fastSrc})
	if err != nil {
		t.Fatal(err)
	}
	if apiErr == nil || apiErr.Code != CodeOverCapacity || apiErr.Status != 503 {
		t.Fatalf("expected 503 over_capacity with a full queue, got %+v", apiErr)
	}
}

func TestDeadlineCancelsMidRun(t *testing.T) {
	s, client := newTestServer(t, testConfig())
	defer s.StopJanitor()

	t0 := time.Now()
	_, apiErr, err := client.Simulate(context.Background(),
		SimulateRequest{Source: slowSrc, DeadlineMS: 150})
	if err != nil {
		t.Fatal(err)
	}
	if apiErr == nil || apiErr.Code != CodeDeadline || apiErr.Status != 504 {
		t.Fatalf("expected 504 deadline, got %+v", apiErr)
	}
	// The cancellation must land promptly — the whole point of threading
	// the context into the event loop. The slow program runs for tens of
	// seconds uncancelled.
	if el := time.Since(t0); el > 5*time.Second {
		t.Fatalf("deadline abort took %v; cancellation did not reach the simulator", el)
	}
	// The arena that aborted mid-run is back in the pool; the next request
	// on it must be bit-identical to a direct harness run.
	req := SimulateRequest{Source: fastSrc}
	resp, apiErr, err := client.Simulate(context.Background(), req)
	if err != nil || apiErr != nil {
		t.Fatalf("post-cancellation request failed: err=%v apiErr=%+v", err, apiErr)
	}
	want := directResult(t, req, s.cfg.MaxCycles)
	if mustJSON(t, resp.Result) != mustJSON(t, want) {
		t.Errorf("result after cancelled-arena reuse diverged:\n got: %s\nwant: %s",
			mustJSON(t, resp.Result), mustJSON(t, want))
	}
}

func TestDrainRejectsAndCancels(t *testing.T) {
	cfg := testConfig()
	cfg.DrainGrace = 5 * time.Second
	s, client := newTestServer(t, cfg)
	defer s.StopJanitor()

	// One slow request in flight; it can only end by cancellation.
	type outcome struct {
		apiErr *ErrorResponse
		err    error
	}
	slowDone := make(chan outcome, 1)
	go func() {
		_, apiErr, err := client.Simulate(context.Background(),
			SimulateRequest{Source: slowSrc, DeadlineMS: 30_000})
		slowDone <- outcome{apiErr, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(s.slots) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow request did not start in time")
		}
		time.Sleep(time.Millisecond)
	}

	drainErr := make(chan error, 1)
	go func() { drainErr <- s.Drain(200 * time.Millisecond) }()

	// New work is rejected as draining once the flag is set.
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	_, apiErr, err := client.Simulate(context.Background(), SimulateRequest{Source: fastSrc})
	if err != nil {
		t.Fatal(err)
	}
	if apiErr == nil || apiErr.Code != CodeDraining || apiErr.Status != 503 {
		t.Fatalf("expected 503 draining during drain, got %+v", apiErr)
	}

	if err := <-drainErr; err != nil {
		t.Fatalf("drain did not complete within budget+grace: %v", err)
	}
	o := <-slowDone
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.apiErr == nil || o.apiErr.Code != CodeDraining {
		t.Fatalf("in-flight request should end with code draining, got %+v", o.apiErr)
	}
}

func TestCompileEndpoint(t *testing.T) {
	s, client := newTestServer(t, testConfig())
	defer s.StopJanitor()

	resp, apiErr, err := client.Compile(context.Background(), CompileRequest{Workload: "fft"})
	if err != nil || apiErr != nil {
		t.Fatalf("err=%v apiErr=%+v", err, apiErr)
	}
	c, cerr := harness.Suite([]string{"fft"}, harness.DefaultCompileOptions())
	if cerr != nil {
		t.Fatal(cerr)
	}
	if resp.Checksum != c[0].Checksum || resp.UsefulInstrs != c[0].UsefulInstrs {
		t.Errorf("compile response %+v disagrees with direct compile (checksum %d, useful %d)",
			resp, c[0].Checksum, c[0].UsefulInstrs)
	}
	if resp.SteerInstrs <= 0 || resp.SelectInstrs <= 0 || resp.RolledInstrs <= 0 {
		t.Errorf("instruction counts missing: %+v", resp)
	}
	// Second compile hits the warm LRU.
	resp2, apiErr, err := client.Compile(context.Background(), CompileRequest{Workload: "fft"})
	if err != nil || apiErr != nil {
		t.Fatalf("err=%v apiErr=%+v", err, apiErr)
	}
	if !resp2.Cached {
		t.Error("second compile of the same workload missed the warm cache")
	}

	_, apiErr, err = client.Compile(context.Background(), CompileRequest{Workload: "no-such-workload"})
	if err != nil {
		t.Fatal(err)
	}
	if apiErr == nil || apiErr.Code != CodeInvalid || apiErr.Status != 400 {
		t.Fatalf("expected 400 invalid for unknown workload, got %+v", apiErr)
	}
}

func TestSweepEndpointMatchesDirectCorpus(t *testing.T) {
	cfg := testConfig()
	cfg.CacheDir = t.TempDir()
	s, client := newTestServer(t, cfg)
	defer s.StopJanitor()

	resp, apiErr, err := client.Sweep(context.Background(), SweepRequest{N: 4, Seed: 9})
	if err != nil || apiErr != nil {
		t.Fatalf("err=%v apiErr=%+v", err, apiErr)
	}
	direct, derr := harness.RunCorpus(harness.CorpusOptions{
		N: 4, Seed: 9,
		Compile: harness.DefaultCompileOptions(),
		Machine: harness.DefaultCorpusMachine(),
	})
	if derr != nil {
		t.Fatal(derr)
	}
	if resp.Table != direct.Table.Render() {
		t.Errorf("served sweep table diverged from direct RunCorpus:\n got:\n%s\nwant:\n%s",
			resp.Table, direct.Table.Render())
	}
	if resp.Mismatched != 0 {
		t.Errorf("sweep reported %d mismatched cells", resp.Mismatched)
	}
	// Re-running the same sweep replays every cell from the corpus cache.
	resp2, apiErr, err := client.Sweep(context.Background(), SweepRequest{N: 4, Seed: 9})
	if err != nil || apiErr != nil {
		t.Fatalf("err=%v apiErr=%+v", err, apiErr)
	}
	if resp2.Computed != 0 || resp2.Cached != 4 {
		t.Errorf("resumed sweep recomputed cells: computed=%d cached=%d", resp2.Computed, resp2.Cached)
	}
	if resp2.Table != resp.Table {
		t.Error("resumed sweep table not byte-identical")
	}

	if _, apiErr, _ = client.Sweep(context.Background(), SweepRequest{N: cfg.SweepMax + 1}); apiErr == nil || apiErr.Code != CodeInvalid {
		t.Fatalf("oversized sweep not rejected: %+v", apiErr)
	}
}

// invalidSimulateRequests are simulate requests a server must refuse with a
// 400 invalid, each for its own reason, before it compiles anything (all but
// the parse error) — TestInvalidRequests' cases and FuzzServeRequests' seeds.
func invalidSimulateRequests() []SimulateRequest {
	o7 := 7
	return []SimulateRequest{
		{},                                    // neither workload nor source
		{Workload: "fft", Source: fastSrc},    // both
		{Source: fastSrc, Binary: "phi"},      // unknown binary
		{Source: fastSrc, Grid: "0x9"},        // grid out of range
		{Source: fastSrc, Grid: "9x9"},        // more clusters than the machine supports
		{Source: fastSrc, Grid: "4x4junk"},    // trailing bytes
		{Source: fastSrc, MemMode: "psychic"}, // unknown memory mode
		{Source: fastSrc, Faults: "defect=x"}, // malformed fault spec
		{Source: fastSrc, Policy: "nonsense"}, // unknown placement policy
		// a removed policy name is refused like any unknown one
		{Source: fastSrc, Policy: "profile-feedback"},
		{Source: "func main() { return ;; }"}, // parse error
		{Source: fastSrc, Unroll: 99},         // unroll out of range
		{Source: fastSrc, Unroll: -1},         // negative unroll
		{Source: fastSrc, Opt: &o7},           // no such optimization level
		{Source: fastSrc, MaxCycles: -5},      // a negative bound is not "unbounded"
		// a kill PE outside the machine
		{Source: fastSrc, Faults: "kill=512@9", Grid: "2x2"},
	}
}

// postPaths are the endpoints that take a JSON body.
var postPaths = []string{"/v1/simulate", "/v1/compile", "/v1/sweep"}

func TestInvalidRequests(t *testing.T) {
	s, client := newTestServer(t, testConfig())
	defer s.StopJanitor()

	cases := invalidSimulateRequests()
	for i, req := range cases {
		_, apiErr, err := client.Simulate(context.Background(), req)
		if err != nil {
			t.Fatalf("case %d: transport error %v", i, err)
		}
		if apiErr == nil || apiErr.Code != CodeInvalid || apiErr.Status != 400 {
			t.Errorf("case %d: expected 400 invalid, got %+v", i, apiErr)
		}
	}
	snaps := s.Snapshot()
	if len(snaps) != 1 || snaps[0].Invalid != uint64(len(cases)) {
		t.Errorf("invalid counter: got %+v, want %d invalid for one tenant", snaps, len(cases))
	}
	// Every case but the parse error was refused before the compile — the
	// unknown policy too, which used to be found only after it — and a
	// failed compile is not kept.
	if n := s.compiled.Len(); n != 0 {
		t.Errorf("%d programs compiled for requests that were all invalid", n)
	}

	// A removed field is an unknown field: the decoder rejects the body,
	// it is not accepted and ignored.
	apiErr, err := client.post(context.Background(), "/v1/simulate",
		map[string]any{"source": fastSrc, "shards": 4}, nil)
	if err != nil || apiErr == nil || apiErr.Code != CodeInvalid || apiErr.Status != 400 {
		t.Errorf("body with \"shards\": expected 400 invalid, got %+v (err %v)", apiErr, err)
	}
	// A body that does not decode is the tenant's invalid request too, on
	// every POST endpoint: the tenant is resolved before the body is read.
	for _, path := range postPaths {
		apiErr, err := client.post(context.Background(), path, []int{1, 2}, nil)
		if err != nil || apiErr == nil || apiErr.Code != CodeInvalid || apiErr.Status != 400 {
			t.Errorf("%s with an array body: expected 400 invalid, got %+v (err %v)", path, apiErr, err)
		}
	}
	if snaps, want := s.Snapshot(), uint64(len(cases)+4); len(snaps) != 1 || snaps[0].Invalid != want {
		t.Errorf("invalid counter after malformed bodies: got %+v, want %d invalid for one tenant", snaps, want)
	}
}

func TestStatsAndHealth(t *testing.T) {
	s, client := newTestServer(t, testConfig())
	defer s.StopJanitor()

	if _, apiErr, err := client.Simulate(context.Background(), SimulateRequest{Source: fastSrc}); err != nil || apiErr != nil {
		t.Fatalf("err=%v apiErr=%+v", err, apiErr)
	}
	body, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body, "waved per-tenant service metrics") || !strings.Contains(body, "test") {
		t.Errorf("stats page missing expected content:\n%s", body)
	}

	resp, err := client.httpClient().Get(client.BaseURL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz %d while serving", resp.StatusCode)
	}
	if err := s.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	resp, err = client.httpClient().Get(client.BaseURL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("healthz %d while draining, want 503", resp.StatusCode)
	}
}

// TestRetryHintStampede is the regression test for the admission-hint
// stampede: a burst of simultaneously throttled clients must each get a
// hint that is (a) at least 1ms — a truncated-to-zero hint told everyone
// to retry immediately — and (b) spread by deterministic jitter, so the
// herd does not resynchronize on the same retry instant. The jitter is a
// pure function of (tenant, rejection ordinal): an identical server
// receiving the identical rejection sequence produces the identical
// hints.
func TestRetryHintStampede(t *testing.T) {
	mkServer := func() (*Server, *Client) {
		cfg := testConfig()
		// A very high refill rate makes the bucket wait sub-millisecond —
		// the exact case the old truncation turned into "retry now".
		cfg.TenantRate = 5000
		cfg.TenantBurst = 1
		now := time.Unix(1_000_000, 0)
		cfg.now = func() time.Time { return now } // frozen clock: no refills
		return newTestServer(t, cfg)
	}
	collect := func(s *Server, client *Client) []int64 {
		req := SimulateRequest{Source: fastSrc}
		if _, apiErr, err := client.Simulate(context.Background(), req); err != nil || apiErr != nil {
			t.Fatalf("burst request rejected: err=%v apiErr=%+v", err, apiErr)
		}
		hints := make([]int64, 0, 16)
		for i := 0; i < 16; i++ {
			_, apiErr, err := client.Simulate(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if apiErr == nil || apiErr.Code != CodeRateLimited {
				t.Fatalf("request %d: expected 429, got %+v", i, apiErr)
			}
			hints = append(hints, apiErr.RetryAfterMS)
		}
		return hints
	}

	s1, c1 := mkServer()
	defer s1.StopJanitor()
	hints := collect(s1, c1)
	distinct := map[int64]bool{}
	for i, h := range hints {
		if h < 1 {
			t.Errorf("hint %d is %dms; sub-millisecond waits must clamp to >= 1ms", i, h)
		}
		distinct[h] = true
	}
	if len(distinct) < 2 {
		t.Errorf("all %d throttled clients told to retry at the same instant (%v): stampede", len(hints), hints)
	}

	// Determinism: an identical server under the identical sequence.
	s2, c2 := mkServer()
	defer s2.StopJanitor()
	if again := collect(s2, c2); !reflect.DeepEqual(hints, again) {
		t.Errorf("retry hints are not deterministic:\n%v\n%v", hints, again)
	}
}
