package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"wavescalar/internal/fault"
	"wavescalar/internal/harness"
	"wavescalar/internal/placement"
	"wavescalar/internal/trace"
	"wavescalar/internal/wavecache"
	"wavescalar/internal/workloads"
)

// maxBodyBytes bounds a request body; maxSourceBytes bounds an inline wsl
// program (a served compiler is a resource, not a fuzz target).
const (
	maxBodyBytes   = 8 << 20
	maxSourceBytes = 1 << 20
)

// simulateCacheVersion names the idempotency-cache schema for /v1/simulate
// results; bump it when SimResult or the simulated configuration keying
// changes meaning.
const simulateCacheVersion = "serve-simulate-v2"

// Handler mounts the API. Routes use Go 1.22+ method patterns, so wrong
// methods 405 without hand-rolled dispatch.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("POST /v1/compile", s.handleCompile)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	// Conventional probe path for load balancers and orchestrators.
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client is the only victim of its own dead connection
}

// fail writes a structured error and charges it to the tenant's matching
// outcome counter — the single point where error codes and counters meet.
func (s *Server) fail(w http.ResponseWriter, tn *tenant, e *ErrorResponse) {
	if tn != nil {
		switch e.Code {
		case CodeInvalid:
			tn.invalid.Add(1)
		case CodeFault:
			tn.faulted.Add(1)
		case CodeRateLimited:
			tn.rateLimited.Add(1)
		case CodeOverCapacity:
			tn.shed.Add(1)
		case CodeDraining:
			tn.drainRejected.Add(1)
		case CodeDeadline:
			tn.deadline.Add(1)
		case CodeCancelled:
			tn.cancelled.Add(1)
		default:
			tn.internal.Add(1)
		}
	}
	status := e.Status
	if status == 0 {
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, e)
}

func invalidErr(format string, args ...any) *ErrorResponse {
	return &ErrorResponse{Code: CodeInvalid, Status: http.StatusBadRequest,
		Error: fmt.Sprintf(format, args...)}
}

// tenantName extracts and validates the X-Tenant header ("default" when
// absent): tenant names are identifiers, not free text, because they key a
// server-side map and appear in stats tables.
func tenantName(r *http.Request) (string, *ErrorResponse) {
	name := r.Header.Get("X-Tenant")
	if name == "" {
		return "default", nil
	}
	if len(name) > 64 {
		return "", invalidErr("tenant name longer than 64 bytes")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return "", invalidErr("tenant name %q: only [A-Za-z0-9._-] allowed", name)
		}
	}
	return name, nil
}

// decode reads one bounded JSON body, rejecting unknown fields so a typo'd
// option fails loudly instead of silently simulating the wrong machine.
func decode(r *http.Request, v any) *ErrorResponse {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return invalidErr("bad request body: %v", err)
	}
	return nil
}

// requestContext derives the request's deadline context: client deadline
// (or the server default), clamped to the server max, cancelled early when
// the client disconnects (r.Context()) or the drain budget expires
// (drainCtx via AfterFunc). The returned cancel releases the AfterFunc
// registration too — call it exactly once, when the request ends.
func (s *Server) requestContext(r *http.Request, deadlineMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	if deadlineMS > 0 {
		d = time.Duration(deadlineMS) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	stop := context.AfterFunc(s.drainCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// ctxError translates a done context into the structured error the client
// should see: deadline expiry is the request's fault, drain is the
// server's, and anything else means the client itself went away.
func (s *Server) ctxError(ctx context.Context) *ErrorResponse {
	switch {
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		return &ErrorResponse{Code: CodeDeadline, Status: http.StatusGatewayTimeout,
			Error: "request deadline expired; the simulation was cancelled mid-run"}
	case s.drainCtx.Err() != nil:
		return &ErrorResponse{Code: CodeDraining, Status: http.StatusServiceUnavailable,
			Error: "server draining for shutdown; the simulation was cancelled mid-run"}
	default:
		return &ErrorResponse{Code: CodeCancelled, Status: 499,
			Error: "client cancelled the request"}
	}
}

// classifyRunError maps a harness/simulator error onto the API: a
// cancellation fault follows the context's story, a real simulation fault
// is the structured 422 diagnostic, a bare context error (worker pool
// stopped before any cell aborted) also follows the context, and anything
// else is a server bug.
func (s *Server) classifyRunError(ctx context.Context, err error) *ErrorResponse {
	var fe *fault.FaultError
	if errors.As(err, &fe) {
		if fe.Kind == fault.KindCancelled {
			return s.ctxError(ctx)
		}
		return &ErrorResponse{Code: CodeFault, Status: http.StatusUnprocessableEntity,
			Error: err.Error()}
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return s.ctxError(ctx)
	}
	return &ErrorResponse{Code: CodeInternal, Status: http.StatusInternalServerError,
		Error: err.Error()}
}

// retryHintMS converts an admission wait into the retry_after_ms hint:
// the wait rounded up to a whole millisecond — truncation told clients
// with sub-millisecond waits to retry immediately — clamped to >= 1ms,
// plus a small deterministic jitter keyed on (tenant, rejection ordinal)
// so a burst of simultaneously throttled clients is spread out instead of
// being synchronized into a retry stampede. Deterministic: the same
// rejection sequence against an identical server produces the same hints.
func retryHintMS(tn *tenant, wait time.Duration) int64 {
	ms := int64((wait + time.Millisecond - 1) / time.Millisecond)
	if ms < 1 {
		ms = 1
	}
	h := uint64(14695981039346656037) // FNV-1a over the tenant name...
	for i := 0; i < len(tn.name); i++ {
		h = (h ^ uint64(tn.name[i])) * 1099511628211
	}
	h = (h ^ tn.retrySeq.Add(1)) * 1099511628211 // ...and the rejection ordinal
	// Jitter scales with the base wait (half again, minimum a few ms) so
	// the spread is proportional without dwarfing the hint.
	return ms + int64(h%uint64(ms/2+4))
}

// admit runs the two-stage admission pipeline: the tenant's token bucket
// (429 with a retry hint), then the bounded global queue (503 shed), then
// a wait for a run slot that respects the request's deadline. On success
// the caller must invoke the returned release exactly once.
func (s *Server) admit(ctx context.Context, tn *tenant) (release func(), apiErr *ErrorResponse) {
	if ok, wait := tn.take(s.cfg.now(), s.cfg.TenantRate, s.cfg.TenantBurst); !ok {
		return nil, &ErrorResponse{Code: CodeRateLimited, Status: http.StatusTooManyRequests,
			Error:        fmt.Sprintf("tenant %q over its admission rate (%.3g req/s, burst %d)", tn.name, s.cfg.TenantRate, s.cfg.TenantBurst),
			RetryAfterMS: retryHintMS(tn, wait)}
	}
	if q := s.queued.Add(1); q > int64(s.cfg.MaxQueue+s.cfg.MaxConcurrent) {
		s.queued.Add(-1)
		return nil, &ErrorResponse{Code: CodeOverCapacity, Status: http.StatusServiceUnavailable,
			Error:        fmt.Sprintf("work queue full (%d admitted); load shed", q-1),
			RetryAfterMS: retryHintMS(tn, time.Second)}
	}
	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots; s.queued.Add(-1) }, nil
	case <-ctx.Done():
		s.queued.Add(-1)
		return nil, s.ctxError(ctx)
	}
}

// open starts a POST request: it resolves the tenant, then decodes the
// body into req. The tenant comes first so that a malformed body is charged
// to its invalid counter like every other bad request. On failure the
// error response has been written and ok is false.
func (s *Server) open(w http.ResponseWriter, r *http.Request, req any) (tn *tenant, ok bool) {
	name, apiErr := tenantName(r)
	if apiErr != nil {
		s.fail(w, nil, apiErr)
		return nil, false
	}
	tn = s.tenantFor(name)
	if tn == nil {
		s.fail(w, nil, &ErrorResponse{Code: CodeOverCapacity, Status: http.StatusServiceUnavailable,
			Error: "tenant table full; load shed", RetryAfterMS: 60_000})
		return nil, false
	}
	if apiErr := decode(r, req); apiErr != nil {
		s.fail(w, tn, apiErr)
		return nil, false
	}
	return tn, true
}

// runAdmitted is the shared request lifecycle around one unit of work:
// in-flight registration (rejecting when draining), deadline context,
// admission, outcome counting, latency recording, response writing. fn is
// told how long admission and the wait for a run slot took, and reports
// whether its success came from a cache (counted separately).
func (s *Server) runAdmitted(w http.ResponseWriter, r *http.Request, tn *tenant, deadlineMS int64,
	fn func(ctx context.Context, queued time.Duration) (out any, cached bool, apiErr *ErrorResponse)) {
	if !s.begin() {
		s.fail(w, tn, &ErrorResponse{Code: CodeDraining, Status: http.StatusServiceUnavailable,
			Error: "server draining for shutdown"})
		return
	}
	defer s.inflight.Done()

	ctx, cancel := s.requestContext(r, deadlineMS)
	defer cancel()
	tq := time.Now()
	release, apiErr := s.admit(ctx, tn)
	if apiErr != nil {
		s.fail(w, tn, apiErr)
		return
	}
	defer release()

	t0 := time.Now()
	out, cached, apiErr := fn(ctx, t0.Sub(tq))
	if apiErr != nil {
		s.fail(w, tn, apiErr)
		return
	}
	tn.recordLatency(millis(time.Since(t0)))
	if cached {
		tn.cacheHits.Add(1)
	} else {
		tn.ok.Add(1)
	}
	writeJSON(w, http.StatusOK, out)
}

// simSpec is a normalized, validated SimulateRequest: every field filled,
// every default applied — the unit the cache key is built from.
type simSpec struct {
	name, src    string
	binary       string
	gridW, gridH int
	unroll       int
	opt          int
	memName      string
	memMode      wavecache.MemoryMode
	policy       string
	maxCycles    int64
	faults       string
	faultSeed    uint64
}

// resolveSource yields (name, source) from a workload-or-inline request
// pair; exactly one must be set.
func resolveSource(workload, source string) (string, string, *ErrorResponse) {
	switch {
	case workload != "" && source != "":
		return "", "", invalidErr("set exactly one of workload and source, not both")
	case workload != "":
		w := workloads.ByName(workload)
		if w == nil {
			return "", "", invalidErr("unknown workload %q (named benchmarks: %v; or gen:family:seed[:size])",
				workload, workloads.Names())
		}
		return w.Name, w.Src, nil
	case source != "":
		if len(source) > maxSourceBytes {
			return "", "", invalidErr("inline source larger than %d bytes", maxSourceBytes)
		}
		return "inline", source, nil
	default:
		return "", "", invalidErr("set one of workload or source")
	}
}

func (s *Server) normalizeSimulate(req *SimulateRequest) (*simSpec, *ErrorResponse) {
	sp := &simSpec{}
	var apiErr *ErrorResponse
	if sp.name, sp.src, apiErr = resolveSource(req.Workload, req.Source); apiErr != nil {
		return nil, apiErr
	}
	sp.binary = req.Binary
	if sp.binary == "" {
		sp.binary = "steer"
	}
	if !slices.Contains(harness.BinaryNames, sp.binary) {
		return nil, invalidErr("unknown binary %q (%s)", req.Binary, strings.Join(harness.BinaryNames, ", "))
	}
	sp.gridW, sp.gridH = 4, 4
	if req.Grid != "" {
		var err error
		if sp.gridW, sp.gridH, err = wavecache.ParseGrid(req.Grid); err != nil {
			return nil, invalidErr("%v", err)
		}
	}
	sp.unroll = req.Unroll
	if sp.unroll == 0 {
		sp.unroll = harness.DefaultCompileOptions().Unroll
	}
	if sp.unroll < 0 || sp.unroll > 16 {
		return nil, invalidErr("unroll %d out of range (1 .. 16)", req.Unroll)
	}
	opt, apiErr := normalizeOpt(req.Opt)
	if apiErr != nil {
		return nil, apiErr
	}
	sp.opt = opt
	sp.memName = req.MemMode
	if sp.memName == "" {
		sp.memName = "wave-ordered"
	}
	switch sp.memName {
	case "wave-ordered":
		sp.memMode = wavecache.MemOrdered
	case "serialized":
		sp.memMode = wavecache.MemSerial
	case "ideal":
		sp.memMode = wavecache.MemIdeal
	case "spec":
		sp.memMode = wavecache.MemSpec
	default:
		return nil, invalidErr("unknown memmode %q (wave-ordered, serialized, ideal, spec)", req.MemMode)
	}
	sp.policy = req.Policy
	if sp.policy == "" {
		sp.policy = harness.DefaultMachineOptions().Policy
	}
	// The server-side watchdog cap always applies; requests may tighten it.
	sp.maxCycles = s.cfg.MaxCycles
	if req.MaxCycles > 0 && req.MaxCycles < sp.maxCycles {
		sp.maxCycles = req.MaxCycles
	}
	sp.faults = req.Faults
	sp.faultSeed = req.FaultSeed
	if sp.faults != "" {
		if _, err := fault.ParseSpec(sp.faults); err != nil {
			return nil, invalidErr("bad faults spec: %v", err)
		}
	}
	return sp, nil
}

// normalizeOpt applies the compile-pipeline default to an optional opt
// level (nil = default on) and validates an explicit one.
func normalizeOpt(opt *int) (int, *ErrorResponse) {
	if opt == nil {
		return harness.DefaultCompileOptions().OptLevel, nil
	}
	if *opt < 0 || *opt > 1 {
		return 0, invalidErr("opt %d out of range (0 .. 1)", *opt)
	}
	return *opt, nil
}

// cacheKey is the idempotency-cache address of a simulate request: every
// input that determines its SimResult, plus the engine-set and schema
// versions. Two requests with the same key get byte-identical results —
// which is exactly why a cached replay is retry-safe.
func (sp *simSpec) cacheKey() string {
	return harness.CacheKey(
		simulateCacheVersion, harness.EngineSetVersion,
		sp.src, sp.binary,
		fmt.Sprintf("grid=%dx%d unroll=%d opt=%d mem=%s policy=%s maxcycles=%d",
			sp.gridW, sp.gridH, sp.unroll, sp.opt, sp.memName, sp.policy, sp.maxCycles),
		fmt.Sprintf("faults=%s seed=%d", sp.faults, sp.faultSeed),
	)
}

// compileKey addresses a program in the warm compiled-program cache: the
// IR every binary is lowered from depends only on source, unroll factor,
// and optimization level. compileCache.get completes it with the binaries
// an entry holds.
func compileKey(src string, unroll, opt int) string {
	return harness.CacheKey("serve-compile", src, fmt.Sprintf("unroll=%d opt=%d", unroll, opt))
}

// millis renders a duration the way the API reports one: milliseconds
// with microsecond resolution.
func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	tn, ok := s.open(w, r, &req)
	if !ok {
		return
	}
	s.runAdmitted(w, r, tn, req.DeadlineMS, func(ctx context.Context, queued time.Duration) (any, bool, *ErrorResponse) {
		sp, apiErr := s.normalizeSimulate(&req)
		if apiErr != nil {
			return nil, false, apiErr
		}
		t0 := time.Now()

		// Idempotency: a retried request replays its completed result from
		// the content-addressed cache (or the write-behind store in front
		// of it) instead of re-simulating. A torn or corrupt entry reads as
		// a miss and is recomputed.
		key := sp.cacheKey()
		if s.results != nil {
			var res SimResult
			if s.results.get(key, &res) {
				return &SimulateResponse{
					Workload:  sp.name,
					Engines:   harness.EngineSetVersion,
					Result:    res,
					Cached:    true,
					ElapsedMS: millis(time.Since(t0)),
					QueueMS:   millis(queued),
				}, true, nil
			}
		}

		resp, apiErr := s.simulate(ctx, sp, req.Metrics)
		if apiErr != nil {
			return nil, false, apiErr
		}
		resp.ElapsedMS = millis(time.Since(t0))
		resp.QueueMS = millis(queued)
		if s.results != nil {
			s.results.put(key, resp.Result)
		}
		return resp, false, nil
	})
}

// simulate compiles (through the warm LRU) and runs one request on the
// WaveCache, with the request context threaded into the simulator's
// cancellation poll.
func (s *Server) simulate(ctx context.Context, sp *simSpec, wantMetrics bool) (*SimulateResponse, *ErrorResponse) {
	tc := time.Now()
	c, _, err := s.compiled.get(ctx, compileKey(sp.src, sp.unroll, sp.opt), sp.binary, func() (*harness.Compiled, error) {
		return harness.CompileSource(sp.name, sp.src,
			harness.CompileOptions{Unroll: sp.unroll, OptLevel: sp.opt, Binaries: []string{sp.binary}})
	})
	ts := time.Now()
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return nil, s.ctxError(ctx)
		}
		// Compilation failures are the program's fault: the pipeline
		// cross-checks its own backends, so a bad program — not a bad
		// server — is what fails here.
		return nil, invalidErr("compile: %v", err)
	}
	prog, err := c.Binary(sp.binary)
	if err != nil {
		// The cache handed back an entry without the binary it was asked
		// for: a server bug, reported as one.
		return nil, &ErrorResponse{Code: CodeInternal, Status: http.StatusInternalServerError, Error: err.Error()}
	}

	m := harness.DefaultMachineOptions()
	m.GridW, m.GridH = sp.gridW, sp.gridH
	m.Policy = sp.policy
	m.MaxCycles = sp.maxCycles
	m.Ctx = ctx
	cfg := m.WaveConfig()
	cfg.MemMode = sp.memMode
	if sp.faults != "" {
		fc, ferr := fault.ParseSpec(sp.faults)
		if ferr != nil {
			return nil, invalidErr("bad faults spec: %v", ferr)
		}
		fc.Seed = sp.faultSeed
		cfg.Faults = fc
		// Placement and simulator must agree on the defect map, so it is
		// installed on the machine before the policy is constructed.
		cfg.Machine.Defective = fault.DefectMap(fc, cfg.Machine.NumPEs())
	}
	var reqAgg *trace.Aggregate
	if wantMetrics {
		reqAgg = trace.NewAggregate()
		cfg.Metrics = reqAgg
	} else {
		cfg.Metrics = s.agg
	}

	pol, err := placement.New(sp.policy, cfg.Machine, prog, 12345)
	if err != nil {
		return nil, invalidErr("placement policy %q: %v", sp.policy, err)
	}
	res, err := harness.RunWave(c, prog, pol, cfg)
	if err != nil {
		return nil, s.classifyRunError(ctx, err)
	}

	resp := &SimulateResponse{
		Workload:   sp.name,
		Engines:    harness.EngineSetVersion,
		CompileMS:  millis(ts.Sub(tc)),
		SimulateMS: millis(time.Since(ts)),
		Result: SimResult{
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
		},
	}
	if reqAgg != nil {
		resp.MetricsTable = reqAgg.Summary("WaveCache trace metrics (this run)").Render()
		// The per-request aggregate also folds into the server-wide one, so
		// opting into per-request metrics never loses global counters.
		snap := reqAgg.Snapshot()
		s.agg.Merge(&snap)
	}
	return resp, nil
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req CompileRequest
	tn, ok := s.open(w, r, &req)
	if !ok {
		return
	}
	s.runAdmitted(w, r, tn, req.DeadlineMS, func(ctx context.Context, _ time.Duration) (any, bool, *ErrorResponse) {
		name, src, apiErr := resolveSource(req.Workload, req.Source)
		if apiErr != nil {
			return nil, false, apiErr
		}
		unroll := req.Unroll
		if unroll == 0 {
			unroll = harness.DefaultCompileOptions().Unroll
		}
		if unroll < 0 || unroll > 16 {
			return nil, false, invalidErr("unroll %d out of range (1 .. 16)", req.Unroll)
		}
		opt, apiErr := normalizeOpt(req.Opt)
		if apiErr != nil {
			return nil, false, apiErr
		}
		c, warm, err := s.compiled.get(ctx, compileKey(src, unroll, opt), "", func() (*harness.Compiled, error) {
			return harness.CompileSource(name, src, harness.CompileOptions{Unroll: unroll, OptLevel: opt})
		})
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				return nil, false, s.ctxError(ctx)
			}
			return nil, false, invalidErr("compile: %v", err)
		}
		return &CompileResponse{
			Workload:         name,
			Checksum:         c.Checksum,
			UsefulInstrs:     c.UsefulInstrs,
			SteerInstrs:      c.Wave.NumInstrs(),
			SelectInstrs:     c.WaveSel.NumInstrs(),
			RolledInstrs:     c.WaveNoUn.NumInstrs(),
			Opt:              c.Opt,
			StoresForwarded:  c.MemOpt.StoresForwarded,
			LoadsEliminated:  c.MemOpt.LoadsReused + c.MemOpt.LoadsPromoted,
			DeadStores:       c.MemOpt.DeadStores,
			MemOpsEliminated: c.MemOpt.MemBefore - c.MemOpt.MemAfter,
			Cached:           warm,
		}, warm, nil
	})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	tn, ok := s.open(w, r, &req)
	if !ok {
		return
	}
	s.runAdmitted(w, r, tn, req.DeadlineMS, func(ctx context.Context, _ time.Duration) (any, bool, *ErrorResponse) {
		if req.N <= 0 {
			return nil, false, invalidErr("sweep size n must be positive")
		}
		if req.N > s.cfg.SweepMax {
			return nil, false, invalidErr("sweep size %d exceeds the server bound %d", req.N, s.cfg.SweepMax)
		}
		t0 := time.Now()
		co := harness.CorpusOptions{
			N:       req.N,
			Seed:    req.Seed,
			Resume:  true,
			Compile: harness.DefaultCompileOptions(),
			Machine: harness.DefaultCorpusMachine(),
		}
		co.Compile.Ctx = ctx
		co.Machine.Ctx = ctx
		co.Machine.Workers = s.cfg.SweepWorkers
		if s.cfg.CacheDir != "" {
			co.CacheDir = filepath.Join(s.cfg.CacheDir, "corpus")
		}
		run, err := harness.RunCorpus(co)
		if err != nil {
			return nil, false, s.classifyRunError(ctx, err)
		}
		// A sweep whose cells all replayed from the corpus cache counts as
		// a cache hit for the tenant.
		allCached := run.Computed == 0 && run.Cached > 0
		return &SweepResponse{
			Table:      run.Table.Render(),
			Computed:   run.Computed,
			Cached:     run.Cached,
			Mismatched: run.Mismatched,
			ElapsedMS:  millis(time.Since(t0)),
		}, allCached, nil
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, struct {
			Draining     bool             `json:"draining"`
			UptimeSec    float64          `json:"uptime_sec"`
			Queued       int64            `json:"queued"`
			CompiledWarm int              `json:"compiled_warm"`
			CompiledHits uint64           `json:"compiled_hits"`
			Tenants      []TenantSnapshot `json:"tenants"`
		}{
			Draining:     s.Draining(),
			UptimeSec:    time.Since(s.start).Seconds(),
			Queued:       s.queued.Load(),
			CompiledWarm: s.compiled.Len(),
			CompiledHits: s.compiled.Hits(),
			Tenants:      s.Snapshot(),
		})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, s.renderStatsText())
}

// handleHealthz is the load-balancer probe: 200 while serving, 503 once
// draining — the front door learns to stop routing here before in-flight
// work finishes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable,
			&ErrorResponse{Code: CodeDraining, Error: "server draining for shutdown"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}
