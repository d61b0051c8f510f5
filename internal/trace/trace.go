// Package trace is the structured observability layer for the WaveCache
// simulator. It holds two things:
//
//   - Metrics, a run's counter set (PE occupancy by domain and cluster,
//     operand-queue depth, mesh-link utilization, store-buffer ordering
//     stalls, fault-recovery retries), with Summary to render it and
//     Aggregate to merge it across runs. The simulator keeps every count
//     itself and builds a run's Metrics once, at the end of a successful
//     run; nothing here counts.
//   - Tracer, the run's timeline: the per-cycle Bucket series and an
//     optional event stream, exportable as JSONL or the Chrome
//     trace_event format (chrome://tracing).
//
// A Tracer is zero-cost when disabled: every method is safe on a nil
// receiver and returns immediately, performing no allocation, so the
// simulators thread a possibly-nil *Tracer through their hot paths and a
// run without tracing is bit-identical to a build without the package
// (TestDisabledTracerZeroAlloc and the harness differential suites prove
// it).
//
// Determinism contract: the simulator emits trace calls in its
// discrete-event processing order, which is a pure function of (program,
// policy construction, config, fault seed). The recorded event stream and
// the metrics summary are therefore reproducible bit-for-bit for a fixed
// seed; aggregation across experiment cells (Aggregate) uses only
// commutative merges (sums, maxes, element-wise additions) so summaries are
// also invariant to worker count and completion order.
package trace

import (
	"fmt"
	"sync"

	"wavescalar/internal/stats"
)

// Kind classifies one recorded event. The kinds table names each kind and
// its A and B payloads.
type Kind uint8

const (
	KindToken        Kind = iota // an operand token was delivered to a PE
	KindFire                     // an instruction fired at a PE
	KindSwap                     // an instruction was demand-swapped into a PE store
	KindOverflow                 // a PE matching table spilled (queue-overflow penalty)
	KindPlace                    // the engine homed (or migrated) an instruction; PE = the home
	KindMemSubmit                // a memory request reached its store buffer
	KindMemIssue                 // the ordering engine released a request to the cache
	KindWaveDone                 // a dynamic wave's memory sequence completed
	KindRetry                    // a lost message was retransmitted
	KindDrop                     // a message attempt was lost in transit
	KindKill                     // a PE died mid-run
	KindSpecIssue                // a request issued past unresolved wave-order predecessors
	KindSpecConflict             // a speculative access failed commit-time validation
	KindSpecSquash               // an epoch was squashed after its first conflict
	KindSpecReplay               // a squashed or conflicting access re-executed at its commit point

	// numKinds sizes the kinds table: a kind added above without a row
	// there has no name, which TestEveryKindHasExportNames rejects.
	numKinds
)

// kinds is each kind's one description: its name in both exports, and the
// JSONL field names of its A and B payloads ("" = unused, omitted).
var kinds = [numKinds]struct{ name, a, b string }{
	KindToken:        {"token", "depth", ""},        // the PE's waiting tokens after delivery
	KindFire:         {"fire", "cluster", "domain"}, // of the firing PE
	KindSwap:         {"swap", "", ""},
	KindOverflow:     {"overflow", "", ""},
	KindPlace:        {"place", "func", "instr"},    // the instruction homed
	KindMemSubmit:    {"mem-submit", "pending", ""}, // the ordering engine's buffered requests after arrival
	KindMemIssue:     {"mem-issue", "op", "stall"},  // memory-op kind; cycles buffered for the ordering chain
	KindWaveDone:     {"wave-done", "ctx", "wave"},
	KindRetry:        {"retry", "wait", ""}, // ack-timeout cycles the sender paid
	KindDrop:         {"drop", "", ""},
	KindKill:         {"kill", "", ""},
	KindSpecIssue:    {"spec-issue", "fwd", "lat"}, // 1 if forwarded from the versioned store buffer; access latency
	KindSpecConflict: {"spec-conflict", "op", ""},  // memory-op kind
	KindSpecSquash:   {"spec-squash", "ctx", "wave"},
	KindSpecReplay:   {"spec-replay", "lat", ""}, // cache cycles paid again
}

func (k Kind) String() string {
	if int(k) < len(kinds) {
		return kinds[k].name
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one recorded simulation event. A and B are kind-specific
// payloads (see kinds); PE is -1 for an event of no PE.
type Event struct {
	T    int64
	Kind Kind
	PE   int32
	A, B int64
}

// Config parameterizes a Tracer. The zero value records the per-cycle
// series only.
type Config struct {
	// Events enables the event stream (JSONL / Chrome export).
	Events bool
	// SampleInterval is the bucket width, in cycles, of the per-cycle
	// counter series (default 64).
	SampleInterval int64
	// MaxEvents bounds the event buffer (default 1<<20); events beyond
	// it are dropped and counted (EventsDropped, and the run's
	// Metrics.EventsDropped) — the cap is never silent.
	MaxEvents int
}

func (c Config) withDefaults() Config {
	if c.SampleInterval <= 0 {
		c.SampleInterval = 64
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 1 << 20
	}
	return c
}

// Bucket is one sample of the per-cycle counter series: everything that
// happened in [i*Interval, (i+1)*Interval) cycles. Counters are sums over
// the bucket; Max* fields are high-water marks within it.
type Bucket struct {
	Fires, Tokens         int64
	MeshMsgs, LinkStall   int64
	MemIssues, OrderStall int64
	MaxQueue, MaxPending  int64
}

// LinkUse is the utilization of one directed mesh link.
type LinkUse struct {
	Msgs        uint64
	StallCycles uint64
}

// Metrics is the counter set a run (or a merged set of runs) produced. The
// simulator builds a run's set from its own counters; all fields merge
// commutatively, so summaries are independent of merge order.
type Metrics struct {
	Runs   int64
	Cycles int64 // simulated cycles, summed across runs

	// Execution.
	Fires, Tokens, Swaps, Overflows uint64
	MaxQueueDepth                   int64
	PEFires                         []uint64   // firings by PE (occupancy)
	ClusterFires                    []uint64   // firings by cluster
	DomainFires                     [][]uint64 // firings by [cluster][domain]

	// Operand network.
	PodMsgs, DomainMsgs, ClusterMsgs, MeshMsgs uint64
	MeshHops                                   uint64
	LinkStallCycles                            uint64
	// Links is mesh link use by [router][direction], directions 0-3 being
	// east, west, south, north.
	Links [][4]LinkUse

	// Wave-ordered memory.
	MemSubmitted, MemIssued uint64
	OrderStallCycles        uint64
	MaxPending              int64
	WavesDone               uint64

	// Speculative memory (MemSpec mode only; zero elsewhere).
	SpecIssued       uint64 // requests issued past unresolved predecessors
	SpecForwards     uint64 // loads forwarded from the versioned store buffer
	SpecConflicts    uint64 // commit-time validation failures
	SpecSquashes     uint64 // epochs squashed
	SpecReplayedOps  uint64 // accesses re-executed at their commit point
	SpecCycles       int64  // cache latency of speculative accesses
	SpecReplayCycles int64  // cache latency charged again by replays

	// Fault recovery.
	Drops, Retries  uint64
	RetryWaitCycles uint64
	PEKills         uint64

	// Placement.
	Placements uint64

	// EventsDropped counts events beyond Config.MaxEvents.
	EventsDropped uint64
}

// Merge adds o into m (commutative: sums, maxes, element-wise additions).
func (m *Metrics) Merge(o *Metrics) {
	m.Runs += o.Runs
	m.Cycles += o.Cycles
	m.Fires += o.Fires
	m.Tokens += o.Tokens
	m.Swaps += o.Swaps
	m.Overflows += o.Overflows
	if o.MaxQueueDepth > m.MaxQueueDepth {
		m.MaxQueueDepth = o.MaxQueueDepth
	}
	m.PEFires = mergeCounts(m.PEFires, o.PEFires)
	m.ClusterFires = mergeCounts(m.ClusterFires, o.ClusterFires)
	for len(m.DomainFires) < len(o.DomainFires) {
		m.DomainFires = append(m.DomainFires, nil)
	}
	for c, doms := range o.DomainFires {
		m.DomainFires[c] = mergeCounts(m.DomainFires[c], doms)
	}
	m.PodMsgs += o.PodMsgs
	m.DomainMsgs += o.DomainMsgs
	m.ClusterMsgs += o.ClusterMsgs
	m.MeshMsgs += o.MeshMsgs
	m.MeshHops += o.MeshHops
	m.LinkStallCycles += o.LinkStallCycles
	for len(m.Links) < len(o.Links) {
		m.Links = append(m.Links, [4]LinkUse{})
	}
	for r := range o.Links {
		for dir, u := range o.Links[r] {
			m.Links[r][dir].Msgs += u.Msgs
			m.Links[r][dir].StallCycles += u.StallCycles
		}
	}
	m.MemSubmitted += o.MemSubmitted
	m.MemIssued += o.MemIssued
	m.OrderStallCycles += o.OrderStallCycles
	if o.MaxPending > m.MaxPending {
		m.MaxPending = o.MaxPending
	}
	m.WavesDone += o.WavesDone
	m.SpecIssued += o.SpecIssued
	m.SpecForwards += o.SpecForwards
	m.SpecConflicts += o.SpecConflicts
	m.SpecSquashes += o.SpecSquashes
	m.SpecReplayedOps += o.SpecReplayedOps
	m.SpecCycles += o.SpecCycles
	m.SpecReplayCycles += o.SpecReplayCycles
	m.Drops += o.Drops
	m.Retries += o.Retries
	m.RetryWaitCycles += o.RetryWaitCycles
	m.PEKills += o.PEKills
	m.Placements += o.Placements
	m.EventsDropped += o.EventsDropped
}

func mergeCounts(dst, src []uint64) []uint64 {
	if len(src) > len(dst) {
		grown := make([]uint64, len(src))
		copy(grown, dst)
		dst = grown
	}
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

// Summary renders the metrics as a two-column table. A "busiest" row names
// the first maximum in index order.
func (m *Metrics) Summary(title string) *stats.Table {
	t := stats.NewTable(title, "metric", "value")
	add := func(k string, v any) { t.AddRow(k, v) }
	add("runs", m.Runs)
	add("cycles (summed)", m.Cycles)
	add("instructions fired", m.Fires)
	add("operand tokens", m.Tokens)
	add("instruction swaps", m.Swaps)
	add("queue spills", m.Overflows)
	add("max queue depth", m.MaxQueueDepth)
	add("PEs used", int64(countNonZero(m.PEFires)))
	add("clusters used", int64(countNonZero(m.ClusterFires)))
	if c, n, ok := busiestCount(m.ClusterFires); ok {
		add("busiest cluster", fmt.Sprintf("%d (%d fires)", c, n))
	}
	if c, d, n, ok := m.busiestDomain(); ok {
		add("busiest domain", fmt.Sprintf("c%d/d%d (%d fires)", c, d, n))
	}
	add("net msgs pod", m.PodMsgs)
	add("net msgs domain", m.DomainMsgs)
	add("net msgs cluster", m.ClusterMsgs)
	add("net msgs mesh", m.MeshMsgs)
	add("mesh hops", m.MeshHops)
	add("link stall cycles", m.LinkStallCycles)
	linksUsed, busyRouter, busyDir := 0, 0, 0
	var busiest LinkUse
	for r := range m.Links {
		for dir, u := range m.Links[r] {
			if u.Msgs > 0 {
				linksUsed++
			}
			if u.Msgs > busiest.Msgs {
				busyRouter, busyDir, busiest = r, dir, u
			}
		}
	}
	add("mesh links used", int64(linksUsed))
	if linksUsed > 0 {
		add("busiest link", fmt.Sprintf("router %d dir %d (%d msgs, %d stall)", busyRouter, busyDir, busiest.Msgs, busiest.StallCycles))
	}
	add("mem requests submitted", m.MemSubmitted)
	add("mem requests issued", m.MemIssued)
	add("ordering stall cycles", m.OrderStallCycles)
	add("max store-buffer pending", m.MaxPending)
	add("waves completed", m.WavesDone)
	// Speculation rows appear only for MemSpec runs, so the default
	// wave-ordered summaries are unchanged.
	if m.SpecIssued > 0 {
		add("spec: issued speculatively", m.SpecIssued)
		add("spec: store-buffer forwards", m.SpecForwards)
		add("spec: conflicts", m.SpecConflicts)
		add("spec: squashes", m.SpecSquashes)
		add("spec: replayed ops", m.SpecReplayedOps)
		add("spec: speculative cycles", m.SpecCycles)
		add("spec: replayed cycles", m.SpecReplayCycles)
		if m.SpecCycles > 0 {
			add("spec: wasted-work ratio",
				fmt.Sprintf("%.4f", float64(m.SpecReplayCycles)/float64(m.SpecCycles)))
		}
	}

	add("message drops", m.Drops)
	add("message retries", m.Retries)
	add("retry wait cycles", m.RetryWaitCycles)
	add("PE kills", m.PEKills)
	add("placements", m.Placements)
	if m.EventsDropped > 0 {
		add("events dropped (buffer cap)", m.EventsDropped)
	}
	return t
}

func countNonZero(xs []uint64) int {
	n := 0
	for _, x := range xs {
		if x > 0 {
			n++
		}
	}
	return n
}

func busiestCount(xs []uint64) (idx int, n uint64, ok bool) {
	for i, x := range xs {
		if x > n {
			idx, n, ok = i, x, true
		}
	}
	return
}

func (m *Metrics) busiestDomain() (cluster, domain int, n uint64, ok bool) {
	for c, doms := range m.DomainFires {
		if d, v, found := busiestCount(doms); found && v > n {
			cluster, domain, n, ok = c, d, v, true
		}
	}
	return
}

// Tracer records the timeline of one simulation run: the per-cycle
// Bucket series and, when Config.Events is set, the event stream. It
// counts nothing else; the simulator stamps the run's Metrics on it at the
// end of a successful run. It records through Event, and through Place,
// NetMsg and LinkHop, whose arguments are not an event's. Not safe for
// concurrent use: construct one per run, like a placement policy. All
// methods are no-ops on a nil receiver — a nil *Tracer is the disabled
// state and costs one predictable branch per call site.
type Tracer struct {
	cfg     Config
	lastT   int64
	events  []Event
	dropped uint64
	buckets []Bucket
	m       Metrics
}

// New builds a tracer.
func New(cfg Config) *Tracer {
	return &Tracer{cfg: cfg.withDefaults()}
}

// Metrics returns the run's counter set, as the simulator stamped it at
// the end of the run (nil receiver, or before then: an empty set).
func (t *Tracer) Metrics() *Metrics {
	if t == nil {
		return &Metrics{}
	}
	return &t.m
}

// SetMetrics stamps the run's counter set on the tracer; the simulator
// calls it once, at the end of a successful run.
func (t *Tracer) SetMetrics(m *Metrics) {
	if t != nil {
		t.m = *m
	}
}

// EventsDropped counts the events recorded past Config.MaxEvents.
func (t *Tracer) EventsDropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Events returns the recorded event stream (nil when events are off).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// bucket returns the sample bucket covering cycle tm, growing the series
// as simulated time advances.
func (t *Tracer) bucket(tm int64) *Bucket {
	if tm < 0 {
		tm = 0
	}
	i := int(tm / t.cfg.SampleInterval)
	for len(t.buckets) <= i {
		t.buckets = append(t.buckets, Bucket{})
	}
	return &t.buckets[i]
}

func (t *Tracer) event(tm int64, k Kind, pe int, a, b int64) {
	if !t.cfg.Events {
		return
	}
	if len(t.events) >= t.cfg.MaxEvents {
		t.dropped++
		return
	}
	t.events = append(t.events, Event{T: tm, Kind: k, PE: int32(pe), A: a, B: b})
}

func (t *Tracer) touch(tm int64) {
	if tm > t.lastT {
		t.lastT = tm
	}
}

// Event records one event of kind k at cycle tm on pe (-1: none), with the
// payloads the kinds table names. Token, fire, mem-submit and mem-issue
// events also feed the per-cycle series. Place events go through Place.
// Event is the nil check alone, so it inlines: a disabled tracer costs its
// callers a branch, not a call.
func (t *Tracer) Event(tm int64, k Kind, pe int, a, b int64) {
	if t != nil {
		t.record(tm, k, pe, a, b)
	}
}

func (t *Tracer) record(tm int64, k Kind, pe int, a, b int64) {
	t.touch(tm)
	switch k {
	case KindToken:
		bk := t.bucket(tm)
		bk.Tokens++
		bk.MaxQueue = max(bk.MaxQueue, a)
	case KindFire:
		t.bucket(tm).Fires++
	case KindMemSubmit:
		bk := t.bucket(tm)
		bk.MaxPending = max(bk.MaxPending, a)
	case KindMemIssue:
		bk := t.bucket(tm)
		bk.MemIssues++
		bk.OrderStall += b
	}
	t.event(tm, k, pe, a, b)
}

// Place records a placement decision (or a post-eviction migration). The
// engine resolves a home while routing a token to it, not at a time of the
// instruction's own, so the event carries the latest time the tracer has
// seen.
func (t *Tracer) Place(fn, instr, pe int) {
	if t == nil {
		return
	}
	t.event(t.lastT, KindPlace, pe, int64(fn), int64(instr))
}

// NetMsg records an operand-network message sent at tm. A mesh message
// counts in the per-cycle mesh-traffic series; every message's send time
// advances the clock that stamps placement events — after a retransmit it
// is the latest time the run has reached.
func (t *Tracer) NetMsg(tm int64, mesh bool) {
	if t == nil {
		return
	}
	t.touch(tm)
	if mesh {
		t.bucket(tm).MeshMsgs++
	}
}

// LinkHop records one traversal of a mesh link, with the cycles the message
// waited for link bandwidth.
func (t *Tracer) LinkHop(tm int64, stall int64) {
	if t == nil {
		return
	}
	t.touch(tm)
	t.bucket(tm).LinkStall += stall
}

// Aggregate is a thread-safe metrics sink: experiment cells running on a
// worker pool each merge their run's Metrics into it. Because Metrics
// merges are commutative, the aggregate is byte-identical at any worker
// count.
type Aggregate struct {
	mu sync.Mutex
	m  Metrics
}

// NewAggregate builds an empty sink.
func NewAggregate() *Aggregate { return &Aggregate{} }

// Merge adds a run's (or another aggregate's snapshotted) Metrics into the
// aggregate.
func (a *Aggregate) Merge(m *Metrics) {
	if a == nil || m == nil {
		return
	}
	a.mu.Lock()
	a.m.Merge(m)
	a.mu.Unlock()
}

// Snapshot returns a deep copy of the merged metrics.
func (a *Aggregate) Snapshot() Metrics {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out Metrics
	out.Merge(&a.m)
	return out
}

// Summary renders the merged metrics as a table.
func (a *Aggregate) Summary(title string) *stats.Table {
	m := a.Snapshot()
	return m.Summary(title)
}

// Reset clears the sink (between experiments).
func (a *Aggregate) Reset() {
	a.mu.Lock()
	a.m = Metrics{}
	a.mu.Unlock()
}

// Runs reports how many runs have merged in.
func (a *Aggregate) Runs() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.m.Runs
}
