// Package serve is the long-lived simulation service behind cmd/waved: an
// HTTP+JSON layer over the experiment harness that treats overload, slow
// cells, and client disappearance as normal events with defined recovery,
// the same way the simulator treats injected faults.
//
// The robustness model, end to end:
//
//   - Admission control: each tenant (X-Tenant header) draws from its own
//     token bucket; an empty bucket is a structured 429 with a retry hint,
//     never an unbounded queue.
//   - Backpressure: admitted work waits in a bounded queue for one of a
//     fixed number of simulation slots; a full queue sheds load with a
//     structured 503 instead of accumulating goroutines.
//   - Deadlines: every request carries a wall-clock deadline (client-set,
//     server-clamped) threaded as a context through the harness into the
//     simulator's event loop, so a slow cell cancels cleanly mid-run with
//     a structured cancellation fault — complementing the simulated-time
//     MaxCycles watchdog.
//   - Idempotency: with a cache directory configured, completed results
//     land in the content-addressed CellCache keyed by everything
//     that determines them, so a retried request replays its result
//     instead of re-simulating (and a torn cache entry is recomputed,
//     never trusted). /v1/simulate and /v1/sweep store through the same
//     CellCache.Put under its one durability rule: a result is replayable,
//     and safe against the process being killed, once its append has
//     returned — before the response is sent — and durable against a
//     machine crash once its log segment is synced (when it fills, and in
//     Drain). A crash loses at most an unsynced tail, which costs nothing
//     but time — a result is a pure function of its key, so the retried
//     request re-simulates to the byte-identical body.
//   - Graceful degradation: drain (SIGTERM in waved) stops admissions
//     with 503s, lets in-flight work finish within a budget, cancels
//     whatever remains, syncs the result store, and flushes metrics.
//
// Warm paths: simulation arenas come from the harness's sync.Pool (a
// request pays the simulator's allocations only on pool misses), and
// compiled programs are cached in an LRU keyed by workload hash and
// binary set with singleflight semantics (a simulation compiles only the
// dataflow binary it names; see compileCache).
package serve

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wavescalar/internal/harness"
	"wavescalar/internal/stats"
	"wavescalar/internal/trace"
)

// Config parameterizes the server. The zero value is unusable; start from
// DefaultConfig.
type Config struct {
	// TenantRate is each tenant's sustained admission rate in requests
	// per second (<= 0 disables rate limiting); TenantBurst is the token
	// bucket capacity.
	TenantRate  float64
	TenantBurst int

	// MaxConcurrent bounds simultaneously running requests; MaxQueue
	// bounds admitted requests waiting for a slot. Beyond queue+slots the
	// server sheds with 503 over_capacity.
	MaxConcurrent int
	MaxQueue      int

	// DefaultDeadline applies when a request does not set deadline_ms;
	// MaxDeadline clamps what a request may ask for.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration

	// MaxCycles is the hard simulated-time watchdog cap per request;
	// requests may tighten it but not exceed it.
	MaxCycles int64

	// SweepMax bounds the corpus size of one sweep request.
	SweepMax int

	// CacheDir, when non-empty, enables the result store: one cell cache
	// that holds both simulate results and sweep cells.
	CacheDir string

	// MaxCompiled bounds the warm compiled-program LRU.
	MaxCompiled int

	// DrainGrace is how long Drain waits after cancelling in-flight work
	// for handlers to unwind before reporting failure.
	DrainGrace time.Duration

	// Log receives one-line operational messages (nil = discard).
	Log io.Writer

	// now is the clock used by admission buckets; tests override it.
	now func() time.Time
}

const (
	// MaxTenants bounds the tenant table; requests from new tenants beyond
	// it are shed until the janitor prunes idle ones.
	MaxTenants = 4096
	// SweepWorkers is the per-sweep worker fan-out (a sweep still occupies
	// a single concurrency slot — keep this small).
	SweepWorkers = 2
)

// DefaultConfig is a reasonable single-machine serving configuration.
func DefaultConfig() Config {
	return Config{
		TenantRate:      50,
		TenantBurst:     100,
		MaxConcurrent:   runtime.NumCPU(),
		MaxQueue:        4 * runtime.NumCPU(),
		DefaultDeadline: 10 * time.Second,
		MaxDeadline:     60 * time.Second,
		MaxCycles:       500_000_000,
		SweepMax:        256,
		MaxCompiled:     256,
		DrainGrace:      2 * time.Second,
	}
}

// Server is one waved process's state. Construct with New; it is ready to
// serve once its Handler is mounted.
type Server struct {
	cfg   Config
	start time.Time

	slots  chan struct{} // running-request slots
	queued atomic.Int64  // admitted requests: waiting + running

	mu       sync.Mutex // guards draining + inflight Add ordering, tenants
	draining bool
	inflight sync.WaitGroup
	tenants  map[string]*tenant

	drainCtx    context.Context // done once the drain budget has expired
	drainCancel context.CancelFunc

	compiled *compileCache
	cache    *harness.CellCache // result store of /v1/simulate and /v1/sweep; nil when disabled
	agg      *trace.Aggregate   // trace metrics of every served run, as each run's engine built them

	janitorStop chan struct{}
	janitorOnce sync.Once
}

// New validates cfg and builds a server.
func New(cfg Config) (*Server, error) {
	if cfg.MaxConcurrent < 1 {
		return nil, fmt.Errorf("serve: MaxConcurrent must be >= 1, got %d", cfg.MaxConcurrent)
	}
	if cfg.MaxQueue < 0 {
		return nil, fmt.Errorf("serve: negative MaxQueue %d", cfg.MaxQueue)
	}
	if cfg.DefaultDeadline <= 0 || cfg.MaxDeadline <= 0 {
		return nil, fmt.Errorf("serve: deadlines must be positive")
	}
	if cfg.DefaultDeadline > cfg.MaxDeadline {
		cfg.DefaultDeadline = cfg.MaxDeadline
	}
	if cfg.MaxCycles <= 0 {
		return nil, fmt.Errorf("serve: MaxCycles cap must be positive")
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 2 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	s := &Server{
		cfg:         cfg,
		start:       time.Now(),
		slots:       make(chan struct{}, cfg.MaxConcurrent),
		tenants:     make(map[string]*tenant),
		compiled:    newCompileCache(cfg.MaxCompiled),
		agg:         trace.NewAggregate(),
		janitorStop: make(chan struct{}),
	}
	s.drainCtx, s.drainCancel = context.WithCancel(context.Background())
	if cfg.CacheDir != "" {
		// Opened once, here: an open indexes the directory. Simulate and
		// sweep keys begin with different tags, so they share one store.
		var err error
		if s.cache, err = harness.NewCellCache(cfg.CacheDir); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	fmt.Fprintf(s.cfg.Log, "waved: "+format+"\n", args...)
}

// begin registers one in-flight request, refusing when the server is
// draining. The mutex orders every successful Add strictly before Drain's
// Wait, which is what makes the WaitGroup race-free.
func (s *Server) begin() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// tenantFor returns (creating if needed) the request's tenant record, or
// nil when the tenant table is full (the caller sheds).
func (s *Server) tenantFor(name string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	tn, ok := s.tenants[name]
	if !ok {
		if len(s.tenants) >= MaxTenants {
			return nil
		}
		tn = &tenant{name: name}
		s.tenants[name] = tn
	}
	tn.lastSeen.Store(time.Now().UnixNano())
	return tn
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully shuts the service down: stop admitting (every new
// request is refused with 503 draining), wait up to budget for in-flight
// work to finish, then cancel whatever remains — each running simulation
// aborts at its next cancellation poll — and wait DrainGrace for handlers
// to unwind. It returns nil when all in-flight work has finished; callers
// flush metrics afterwards. Whichever way it returns, every result stored
// by then has been synced and the store's descriptor is released, so a
// successor on the same CacheDir replays them (and a caller may remove the
// directory). Drain is idempotent.
func (s *Server) Drain(budget time.Duration) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.StopJanitor()
	// Deferred so it follows the handlers that were still running; one
	// that outlives even the grace period still stores its result, in a
	// segment of its own that nothing syncs.
	defer s.closeCache()

	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	timer := time.NewTimer(budget)
	defer timer.Stop()
	select {
	case <-done:
		s.logf("drain: all in-flight work finished within budget %v", budget)
		return nil
	case <-timer.C:
	}
	s.logf("drain: budget %v expired, cancelling in-flight work", budget)
	s.drainCancel()
	grace := time.NewTimer(s.cfg.DrainGrace)
	defer grace.Stop()
	select {
	case <-done:
		return nil
	case <-grace.C:
		return fmt.Errorf("serve: drain incomplete after %v budget + %v grace", budget, s.cfg.DrainGrace)
	}
}

// closeCache syncs and closes the result store and logs what that cost.
func (s *Server) closeCache() {
	if s.cache == nil {
		return
	}
	st, t0 := s.cache.Stats(), time.Now()
	if err := s.cache.Close(); err != nil {
		s.logf("drain: result cache: %v", err)
	} else if st.UnsyncedRecords > 0 {
		s.logf("drain: result cache: synced %d records (%s) in %v",
			st.UnsyncedRecords, harness.FormatBytes(st.UnsyncedBytes), time.Since(t0).Round(time.Microsecond))
	}
}

// StartJanitor runs the housekeeping loop: every interval it prunes the
// result store to the given bounds (skipped when no store or no
// bounds) and forgets tenants idle longer than idleTenant. Call once;
// StopJanitor (or Drain) ends it.
func (s *Server) StartJanitor(interval time.Duration, pruneAge time.Duration, pruneBytes int64, idleTenant time.Duration) {
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.janitorStop:
				return
			case <-t.C:
			}
			if s.cache != nil && (pruneAge > 0 || pruneBytes > 0) {
				if st, err := s.cache.Prune(pruneAge, pruneBytes); err != nil {
					s.logf("janitor: result cache prune: %v", err)
				} else if st.Removed() > 0 {
					s.logf("janitor: result cache prune: %s", st)
				}
			}
			if idleTenant > 0 {
				s.pruneIdleTenants(idleTenant)
			}
		}
	}()
}

// StopJanitor terminates the janitor loop (idempotent).
func (s *Server) StopJanitor() {
	s.janitorOnce.Do(func() { close(s.janitorStop) })
}

// pruneIdleTenants drops tenants not seen for idle, bounding the tenant
// table for long-lived processes with high tenant churn. An idle tenant's
// counters vanish from /v1/stats; its bucket restarts full on return.
func (s *Server) pruneIdleTenants(idle time.Duration) {
	cutoff := time.Now().Add(-idle).UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, tn := range s.tenants {
		if tn.lastSeen.Load() < cutoff {
			delete(s.tenants, name)
		}
	}
}

// Snapshot returns every tenant's service metrics, sorted by tenant name.
func (s *Server) Snapshot() []TenantSnapshot {
	s.mu.Lock()
	tns := make([]*tenant, 0, len(s.tenants))
	for _, tn := range s.tenants {
		tns = append(tns, tn)
	}
	s.mu.Unlock()
	out := make([]TenantSnapshot, len(tns))
	for i, tn := range tns {
		out[i] = tn.snapshot()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// StatsTable renders the per-tenant service metrics as a table: request
// outcomes by class plus the latency quantiles of completed requests.
func (s *Server) StatsTable() *stats.Table {
	t := stats.NewTable("waved per-tenant service metrics",
		"tenant", "ok", "cache-hit", "rate-limited", "shed", "drain-rej",
		"deadline", "cancelled", "fault", "invalid", "internal", "p50-ms", "p99-ms")
	for _, sn := range s.Snapshot() {
		t.AddRow(sn.Tenant, sn.OK, sn.CacheHits, sn.RateLimited, sn.Shed, sn.DrainRejected,
			sn.Deadline, sn.Cancelled, sn.Faulted, sn.Invalid, sn.Internal,
			sn.P50MS, sn.P99MS)
	}
	t.Note = fmt.Sprintf("compiled-program cache: %d warm entries, %d hits; queue %d/%d; uptime %v",
		s.compiled.Len(), s.compiled.Hits(), s.queued.Load(),
		int64(s.cfg.MaxQueue+s.cfg.MaxConcurrent), time.Since(s.start).Round(time.Second))
	return t
}

// FlushMetrics writes the final stats table and the aggregated simulation
// trace counters to w — the last thing waved does on shutdown.
func (s *Server) FlushMetrics(w io.Writer) {
	fmt.Fprintln(w, s.StatsTable().Render())
	if s.agg.Runs() > 0 {
		fmt.Fprintln(w, s.agg.Summary("waved WaveCache trace metrics (all served runs)").Render())
	}
}

// renderStatsText is the /v1/stats text body.
func (s *Server) renderStatsText() string {
	var b strings.Builder
	state := "serving"
	if s.Draining() {
		state = "draining"
	}
	fmt.Fprintf(&b, "waved %s: uptime %v, %d/%d queue slots in use\n\n",
		state, time.Since(s.start).Round(time.Second), s.queued.Load(),
		int64(s.cfg.MaxQueue+s.cfg.MaxConcurrent))
	b.WriteString(s.StatsTable().Render())
	b.WriteString("\n")
	if s.cache != nil {
		t := stats.NewTable("waved result cache",
			"records", "segments", "bytes", "gets", "hits", "puts", "corrupt", "unsynced-bytes")
		st := s.cache.Stats()
		t.AddRow(st.Records, st.Segments, st.Bytes, st.Gets, st.Hits, st.Puts, st.Corrupt, st.UnsyncedBytes)
		b.WriteString(t.Render())
		b.WriteString("\n")
	}
	if s.agg.Runs() > 0 {
		b.WriteString(s.agg.Summary("WaveCache trace metrics (all served runs)").Render())
		b.WriteString("\n")
	}
	return b.String()
}
