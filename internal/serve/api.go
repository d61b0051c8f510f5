package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// The wire types of the waved HTTP+JSON API. Every response body is either
// the endpoint's success type or an ErrorResponse; tenancy travels in the
// X-Tenant header so a front proxy can set it without touching bodies.

// SimulateRequest asks for one WaveCache simulation. Exactly one of
// Workload (a named benchmark kernel, or a generated corpus program as
// "gen:family:seed[:size]") or Source (inline wsl) selects the program.
// An omitted machine or compile field takes the harness default; DESIGN.md
// "Machine configuration" lists each one's default and accepted range.
type SimulateRequest struct {
	Workload string `json:"workload,omitempty"`
	Source   string `json:"source,omitempty"`
	// Binary picks the compiled dataflow binary: "steer" (default),
	// "select" (if-converted), or "rolled" (no unrolling).
	Binary string `json:"binary,omitempty"`
	// Grid is the cluster grid as "WxH".
	Grid string `json:"grid,omitempty"`
	// Unroll is the loop unrolling factor (0 = the pipeline default).
	Unroll int `json:"unroll,omitempty"`
	// Opt is the compiler optimization level: nil = the pipeline default
	// (1, memory tier on), explicit 0 = base passes only. It changes the
	// compiled program, so it is part of the result cache key.
	Opt *int `json:"opt,omitempty"`
	// MemMode is "wave-ordered" (default), "serialized", "ideal", or
	// "spec" (speculative transactional wave-ordered memory).
	MemMode string `json:"memmode,omitempty"`
	// Policy names the placement policy.
	Policy string `json:"policy,omitempty"`
	// MaxCycles bounds simulated time (0 = the server's cap; requests may
	// only tighten the cap, never exceed it).
	MaxCycles int64 `json:"max_cycles,omitempty"`
	// Faults is the fault-injection spec (see wavesim -faults); FaultSeed
	// drives it deterministically.
	Faults    string `json:"faults,omitempty"`
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// DeadlineMS bounds the request's wall-clock time (0 = server default;
	// clamped to the server maximum). On expiry the simulation is
	// cancelled mid-run and the request fails with code "deadline".
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Metrics requests the run's trace-counter summary table in the
	// response (omitted on idempotency-cache hits).
	Metrics bool `json:"metrics,omitempty"`
}

// SimResult is the deterministic core of a simulation response: a pure
// function of the request's program and configuration, byte-identical
// whether computed, replayed from the idempotency cache, or produced by a
// direct harness run.
type SimResult struct {
	Value        int64   `json:"value"`
	UsefulInstrs int64   `json:"useful_instrs"`
	Cycles       int64   `json:"cycles"`
	AIPC         float64 `json:"aipc"`
	Fired        uint64  `json:"fired"`
	Tokens       uint64  `json:"tokens"`
	Swaps        uint64  `json:"swaps"`
	Overflows    uint64  `json:"overflows"`
	PEsUsed      int     `json:"pes_used"`
	MemoryOps    uint64  `json:"memory_ops"`
	NetMessages  uint64  `json:"net_messages"`
}

// SimulateResponse is a successful simulation.
type SimulateResponse struct {
	Workload string    `json:"workload"`
	Engines  string    `json:"engines"` // engine-set version the result is keyed under
	Result   SimResult `json:"result"`
	// Cached reports an idempotency-cache replay (retry-safe: a retried
	// request returns the stored result instead of re-simulating).
	Cached bool `json:"cached"`
	// ElapsedMS is the handler's time from the normalized request to the
	// result: the cache probe, and on a miss the compile and the
	// simulation. The three stages beside it say where a request's
	// server-side time went: QueueMS is admission plus the wait for a run
	// slot (before ElapsedMS starts); CompileMS is getting the compiled
	// program — the compile, or the wait for another request's compile of
	// the same program, and next to nothing when the warm cache answers;
	// SimulateMS is building the placement policy and running the
	// WaveCache. Both are 0 on a replay.
	ElapsedMS    float64 `json:"elapsed_ms"`
	QueueMS      float64 `json:"queue_ms"`
	CompileMS    float64 `json:"compile_ms"`
	SimulateMS   float64 `json:"simulate_ms"`
	MetricsTable string  `json:"metrics_table,omitempty"`
}

// CompileRequest asks for compilation only.
type CompileRequest struct {
	Workload string `json:"workload,omitempty"`
	Source   string `json:"source,omitempty"`
	Unroll   int    `json:"unroll,omitempty"`
	// Opt is the compiler optimization level: nil = the pipeline default
	// (1, memory tier on), explicit 0 = base passes only.
	Opt        *int  `json:"opt,omitempty"`
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// CompileResponse reports the compiled program's static shape and the
// checksum every engine must reproduce.
type CompileResponse struct {
	Workload     string `json:"workload"`
	Checksum     int64  `json:"checksum"`
	UsefulInstrs int64  `json:"useful_instrs"`
	SteerInstrs  int    `json:"steer_instrs"`
	SelectInstrs int    `json:"select_instrs"`
	RolledInstrs int    `json:"rolled_instrs"`
	// Opt echoes the optimization level the pipeline ran at; the
	// *_eliminated counters are the memory tier's per-pass totals (absent
	// at opt 0).
	Opt              int   `json:"opt"`
	StoresForwarded  int64 `json:"stores_forwarded,omitempty"`
	LoadsEliminated  int64 `json:"loads_eliminated,omitempty"`
	DeadStores       int64 `json:"dead_stores,omitempty"`
	MemOpsEliminated int64 `json:"mem_ops_eliminated,omitempty"`
	Cached           bool  `json:"cached"`
}

// SweepRequest asks for a corpus differential sweep (a bounded, served
// variant of `waveexp -corpus`).
type SweepRequest struct {
	N          int   `json:"n"`
	Seed       int64 `json:"seed"`
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// SweepResponse is the rendered corpus table plus the sweep's cell
// accounting.
type SweepResponse struct {
	Table      string  `json:"table"`
	Computed   int     `json:"computed"`
	Cached     int     `json:"cached"`
	Mismatched int     `json:"mismatched"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

// Error codes: every non-2xx response carries one, so clients branch on
// codes, never on message text.
const (
	CodeInvalid      = "invalid"       // 400: malformed request or program
	CodeFault        = "fault"         // 422: simulation aborted (watchdog, unrecoverable fault)
	CodeRateLimited  = "rate_limited"  // 429: tenant over its token bucket
	CodeOverCapacity = "over_capacity" // 503: bounded work queue full, load shed
	CodeDraining     = "draining"      // 503: server is draining for shutdown
	CodeDeadline     = "deadline"      // 504: request deadline expired mid-run
	CodeCancelled    = "cancelled"     // 499: client went away mid-run (rarely observed by anyone)
	CodeInternal     = "internal"      // 500: bug — soak tests treat any of these as failure
)

// ErrorResponse is the structured error body.
type ErrorResponse struct {
	Code         string `json:"code"`
	Error        string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	// Status is the HTTP status, filled by Client for callers that branch
	// on it; never serialized by the server.
	Status int `json:"-"`
}

// Client is the minimal waved API client shared by the waveload generator
// and the soak tests.
type Client struct {
	BaseURL string
	Tenant  string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// post sends one request. A 2xx decodes into out and returns (nil, nil);
// a structured error decodes into the returned ErrorResponse; transport
// and decoding failures land in err.
func (c *Client) post(ctx context.Context, path string, in, out any) (*ErrorResponse, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.Tenant != "" {
		req.Header.Set("X-Tenant", c.Tenant)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 == 2 {
		if out == nil {
			return nil, nil
		}
		return nil, json.Unmarshal(data, out)
	}
	var apiErr ErrorResponse
	if err := json.Unmarshal(data, &apiErr); err != nil || apiErr.Code == "" {
		return nil, fmt.Errorf("serve: HTTP %d with unstructured body %.200q", resp.StatusCode, data)
	}
	apiErr.Status = resp.StatusCode
	return &apiErr, nil
}

// Simulate runs one simulation request.
func (c *Client) Simulate(ctx context.Context, req SimulateRequest) (*SimulateResponse, *ErrorResponse, error) {
	var out SimulateResponse
	apiErr, err := c.post(ctx, "/v1/simulate", req, &out)
	if apiErr != nil || err != nil {
		return nil, apiErr, err
	}
	return &out, nil, nil
}

// Compile runs one compile request.
func (c *Client) Compile(ctx context.Context, req CompileRequest) (*CompileResponse, *ErrorResponse, error) {
	var out CompileResponse
	apiErr, err := c.post(ctx, "/v1/compile", req, &out)
	if apiErr != nil || err != nil {
		return nil, apiErr, err
	}
	return &out, nil, nil
}

// Sweep runs one corpus-sweep request.
func (c *Client) Sweep(ctx context.Context, req SweepRequest) (*SweepResponse, *ErrorResponse, error) {
	var out SweepResponse
	apiErr, err := c.post(ctx, "/v1/sweep", req, &out)
	if apiErr != nil || err != nil {
		return nil, apiErr, err
	}
	return &out, nil, nil
}

// Stats fetches the human-readable stats page.
func (c *Client) Stats(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/stats", nil)
	if err != nil {
		return "", err
	}
	if c.Tenant != "" {
		req.Header.Set("X-Tenant", c.Tenant)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("serve: stats: HTTP %d", resp.StatusCode)
	}
	return string(data), nil
}
