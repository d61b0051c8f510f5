package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"wavescalar/internal/fault"
	"wavescalar/internal/harness"
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
const simulateCacheVersion = "serve-simulate-v3"

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

// compileError translates a failed compileCache.get: a wait the context
// ended follows the context's story, a compiler panic is the server's bug
// (logged with the build goroutine's stack), and anything else is the
// program's fault — the pipeline cross-checks its own backends, so a bad
// program, not a bad server, is what fails there.
func (s *Server) compileError(ctx context.Context, err error) *ErrorResponse {
	var bp *buildPanic
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return s.ctxError(ctx)
	case errors.As(err, &bp):
		s.logf("compile: %v\n%s", bp, bp.stack)
		return &ErrorResponse{Code: CodeInternal, Status: http.StatusInternalServerError, Error: bp.Error()}
	default:
		return invalidErr("compile: %v", err)
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

// simJob is a validated SimulateRequest: the program, the binary of it to
// run, and the compile and machine options every cache key is made from.
type simJob struct {
	name, src string
	binary    string
	co        harness.CompileOptions
	m         harness.MachineOptions
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

// normalizeSimulate translates a request into the options it stands for —
// an omitted field is the harness default — and validates them, so a
// request that cannot run is refused before anything is compiled.
func (s *Server) normalizeSimulate(req *SimulateRequest) (*simJob, *ErrorResponse) {
	j := &simJob{binary: cmp.Or(req.Binary, harness.BinaryNames[0])}
	var apiErr *ErrorResponse
	if j.name, j.src, apiErr = resolveSource(req.Workload, req.Source); apiErr != nil {
		return nil, apiErr
	}
	if j.co, apiErr = compileOptions(req.Unroll, req.Opt, j.binary); apiErr != nil {
		return nil, apiErr
	}
	// The server-side watchdog cap always applies; requests may tighten it.
	j.m = harness.MachineOptions{Policy: req.Policy, MaxCycles: s.cfg.MaxCycles,
		Faults: req.Faults, FaultSeed: req.FaultSeed}
	if req.MaxCycles != 0 && req.MaxCycles < j.m.MaxCycles {
		j.m.MaxCycles = req.MaxCycles
	}
	var err error
	if req.Grid != "" {
		if j.m.GridW, j.m.GridH, err = wavecache.ParseGrid(req.Grid); err != nil {
			return nil, invalidErr("%v", err)
		}
	}
	if j.m.MemMode, err = wavecache.ParseMemoryMode(req.MemMode); err != nil {
		return nil, invalidErr("%v", err)
	}
	if err := j.m.Validate(); err != nil {
		return nil, invalidErr("%v", err)
	}
	return j, nil
}

// compileOptions are the validated options of a request's optional unroll
// factor and opt level (0 / nil = the pipeline default), building the named
// binaries (none = all). The cap on the unroll factor is the service's
// resource bound, not the compiler's.
func compileOptions(unroll int, opt *int, binaries ...string) (harness.CompileOptions, *ErrorResponse) {
	co := harness.DefaultCompileOptions()
	co.Unroll = cmp.Or(unroll, co.Unroll)
	if opt != nil {
		co.OptLevel = *opt
	}
	co.Binaries = binaries
	if err := co.Validate(); err != nil {
		return co, invalidErr("%v", err)
	}
	if co.Unroll > 16 {
		return co, invalidErr("unroll %d out of range (1 .. 16)", unroll)
	}
	return co, nil
}

// cacheKey is the idempotency-cache address of a simulate request: every
// input that determines its SimResult, plus the engine-set and schema
// versions. Two requests with the same key get byte-identical results —
// which is exactly why a cached replay is retry-safe.
func (j *simJob) cacheKey() string {
	return harness.CacheKey(simulateCacheVersion, harness.EngineSetVersion,
		j.src, j.binary, j.co.Key(), j.m.Key())
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
		j, apiErr := s.normalizeSimulate(&req)
		if apiErr != nil {
			return nil, false, apiErr
		}
		t0 := time.Now()

		// Idempotency: a retried request replays its completed result from
		// the content-addressed cache instead of re-simulating. A torn or
		// corrupt entry reads as a miss and is recomputed.
		key := j.cacheKey()
		if s.cache != nil {
			var res SimResult
			if s.cache.Get(key, &res) {
				return &SimulateResponse{
					Workload:  j.name,
					Engines:   harness.EngineSetVersion,
					Result:    res,
					Cached:    true,
					ElapsedMS: millis(time.Since(t0)),
					QueueMS:   millis(queued),
				}, true, nil
			}
		}

		resp, apiErr := s.simulate(ctx, j, req.Metrics)
		if apiErr != nil {
			return nil, false, apiErr
		}
		resp.ElapsedMS = millis(time.Since(t0))
		resp.QueueMS = millis(queued)
		if s.cache != nil {
			// Before the response: the replay a client sends the moment it
			// has this answer must hit.
			if err := s.cache.Put(key, resp.Result); err != nil {
				s.logf("simulate: idempotency cache put: %v", err)
			}
		}
		return resp, false, nil
	})
}

// simulate compiles (through the warm LRU) and runs one request on the
// WaveCache, with the request context threaded into the simulator's
// cancellation poll.
func (s *Server) simulate(ctx context.Context, j *simJob, wantMetrics bool) (*SimulateResponse, *ErrorResponse) {
	tc := time.Now()
	c, _, err := s.compiled.compile(ctx, j.name, j.src, j.co, j.binary)
	ts := time.Now()
	if err != nil {
		return nil, s.compileError(ctx, err)
	}
	prog, err := c.Binary(j.binary)
	if err != nil {
		// The cache handed back an entry without the binary it was asked
		// for: a server bug, reported as one.
		return nil, &ErrorResponse{Code: CodeInternal, Status: http.StatusInternalServerError, Error: err.Error()}
	}

	m := j.m
	m.Ctx = ctx
	// Every run folds its trace metrics into the server-wide aggregate. The
	// engine builds them from its own counters once the run has finished,
	// so no tracer rides along.
	m.Metrics = s.agg
	var reqAgg *trace.Aggregate
	if wantMetrics {
		reqAgg = trace.NewAggregate()
		m.Metrics = reqAgg
	}
	cfg, pol, err := m.Build(prog)
	if err != nil {
		return nil, invalidErr("%v", err)
	}
	res, err := harness.RunWave(c, prog, pol, cfg)
	if err != nil {
		return nil, s.classifyRunError(ctx, err)
	}

	resp := &SimulateResponse{
		Workload:   j.name,
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
		co, apiErr := compileOptions(req.Unroll, req.Opt)
		if apiErr != nil {
			return nil, false, apiErr
		}
		c, warm, err := s.compiled.compile(ctx, name, src, co, "")
		if err != nil {
			return nil, false, s.compileError(ctx, err)
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
		co.Machine.Workers = SweepWorkers
		co.Cache = s.cache
		run, err := harness.RunCorpus(co)
		if err != nil {
			return nil, false, s.classifyRunError(ctx, err)
		}
		// A sweep whose cells all replayed from the result cache counts as
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
		var cache *harness.CacheStats
		if s.cache != nil {
			st := s.cache.Stats()
			cache = &st
		}
		writeJSON(w, http.StatusOK, struct {
			Draining     bool                `json:"draining"`
			UptimeSec    float64             `json:"uptime_sec"`
			Queued       int64               `json:"queued"`
			CompiledWarm int                 `json:"compiled_warm"`
			CompiledHits uint64              `json:"compiled_hits"`
			Cache        *harness.CacheStats `json:"cache,omitempty"`
			Tenants      []TenantSnapshot    `json:"tenants"`
		}{
			Draining:     s.Draining(),
			UptimeSec:    time.Since(s.start).Seconds(),
			Queued:       s.queued.Load(),
			CompiledWarm: s.compiled.Len(),
			CompiledHits: s.compiled.Hits(),
			Cache:        cache,
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
