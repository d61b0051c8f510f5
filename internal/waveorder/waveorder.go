// Package waveorder implements wave-ordered memory, the central contribution
// of the WaveScalar paper (MICRO 2003).
//
// Dataflow execution provides no program counter, so nothing in the
// execution substrate says in what order two memory operations should reach
// memory. WaveScalar recovers the sequential memory semantics imperative
// languages require by annotating every memory operation with its position
// in its wave's control-flow graph: a sequence number for the operation
// itself, plus the sequence numbers of its predecessor and successor in
// program order (wildcards where the neighbour depends on the branch taken).
// MEMORY-NOPs fill memory-silent paths so that every executed path announces
// one complete chain from the wave's start to its end.
//
// The hardware (a store buffer) assembles arriving annotations into the
// unique chain for the dynamically executed path and issues the operations
// to the memory system in exactly that order: an operation issues when it
// links to the previously issued operation (isa.MemOrder.Links: its Pred
// names the previous operation, or the previous operation's Succ names it).
// Waves issue in wave-number order; dynamic wave numbers within a context
// are consecutive by construction (WAVE-ADVANCE on every wave crossing), so
// the buffer always knows which wave to drain next.
//
// Function calls generalize the scheme hierarchically: a call occupies one
// slot (a MemCall annotation) in the caller's chain, and the callee's whole
// memory sequence — its waves 0..k, terminated by a MemEnd annotation on its
// RETURN — splices into the total order at that slot. The Engine models this
// with a stack of active contexts.
//
// The Engine is purely logical: it decides order, and reports each decision
// through the IssueFunc callback. Timing simulators wrap it and charge
// whatever latency their store-buffer hardware implies; the functional
// interpreter calls it directly.
//
// Allocation discipline: the engine recycles its per-context and per-wave
// buffering state through internal freelists, and — when a releaser is
// installed with SetReleaser — hands each Request back to its creator the
// moment it can no longer be referenced, so a hosting simulator can pool
// request records and keep the whole submit/issue path allocation-free in
// steady state. Reset rewinds the engine for a fresh run while keeping
// every backing array.
package waveorder

import (
	"fmt"
	"sort"
	"strings"

	"wavescalar/internal/isa"
	"wavescalar/internal/trace"
)

// Request is one memory message sent from an executing instruction to the
// ordering engine.
type Request struct {
	Ctx  uint32 // dynamic context (function activation)
	Wave uint32 // dynamic wave number within the context

	Kind isa.MemKind
	Seq  int32
	Pred int32
	Succ int32

	Addr  int64 // MemLoad, MemStore
	Value int64 // MemStore: value to write; filled with the result for MemLoad by the issuer

	ChildCtx uint32 // MemCall: the context whose sequence splices in here

	// Cookie is an opaque handle for the submitting engine (e.g. an index
	// into its pool of reply-routing records). It is an integer rather
	// than an interface so that carrying per-request metadata never boxes
	// (a per-message heap allocation on the simulator's hot path).
	Cookie int64
}

// order is the request's wave-ordering annotation.
func (r *Request) order() isa.MemOrder {
	return isa.MemOrder{Kind: r.Kind, Seq: r.Seq, Pred: r.Pred, Succ: r.Succ}
}

func (r *Request) String() string {
	return fmt.Sprintf("%s ctx%d w%d %s.%s.%s addr=%d",
		r.Kind, r.Ctx, r.Wave, isa.SeqString(r.Pred), isa.SeqString(r.Seq), isa.SeqString(r.Succ), r.Addr)
}

// IssueFunc receives requests in program order, exactly once each.
type IssueFunc func(*Request)

// waveState buffers the not-yet-issued requests of one dynamic wave: a
// small insertion-ordered slice, scanned backwards so that a duplicate
// annotation shadows an earlier one. Waves buffer few requests at a time
// (the store buffer's occupancy), so linear scans beat hashing and
// allocate nothing.
type waveState struct {
	reqs []*Request
}

func (w *waveState) add(r *Request) { w.reqs = append(w.reqs, r) }

// take removes and returns the latest-added request that links to last
// (isa.MemOrder.Links), preserving insertion order; nil if none does.
func (w *waveState) take(last isa.MemOrder) *Request {
	for i := len(w.reqs) - 1; i >= 0; i-- {
		if r := w.reqs[i]; last.Links(r.order()) {
			w.reqs = append(w.reqs[:i], w.reqs[i+1:]...)
			return r
		}
	}
	return nil
}

func (w *waveState) empty() bool { return len(w.reqs) == 0 }

// ctxState is the ordering state of one function activation. The chain
// position is carried as an annotation (last) rather than a retained
// *Request so issued requests can be recycled immediately.
type ctxState struct {
	id uint32
	// waves is a dense sliding window of buffered wave state: waves[i]
	// holds wave number waveBase+i (nil = nothing buffered). Wave numbers
	// a context touches at any instant cluster tightly around curWave, so
	// a window replaces the old per-context map on the drain hot path;
	// completed leading waves shift the window forward (see clearWave).
	waves    []*waveState
	waveBase uint32
	curWave  uint32

	// last is the annotation of curWave's last issued request,
	// isa.WaveStart at a wave start.
	last isa.MemOrder

	parent *ctxState
	// spliced records that a MemCall has bound this context into its
	// parent's chain; call is that call slot's annotation.
	spliced bool
	call    isa.MemOrder

	ended bool
}

// waveAt returns the buffered state for wave n, nil if none.
func (c *ctxState) waveAt(n uint32) *waveState {
	if n < c.waveBase || n-c.waveBase >= uint32(len(c.waves)) {
		return nil
	}
	return c.waves[n-c.waveBase]
}

// setWave installs w as wave n's buffer, growing the window as needed. A
// wave before the window start re-extends the window backwards, in place.
// That is the common case, not a corner: clearWave slides the window past
// the current wave whenever its buffer momentarily empties, and the wave's
// next request arrives behind the new start. (A request for an
// already-completed wave takes the same path; it buffers forever and
// surfaces in the deadlock dump.)
func (c *ctxState) setWave(n uint32, w *waveState) {
	if n < c.waveBase {
		shift := int(c.waveBase - n)
		old := len(c.waves)
		c.waves = append(c.waves, make([]*waveState, shift)...) // no temporary: the compiler extends in place
		copy(c.waves[shift:], c.waves[:old])
		clear(c.waves[:shift])
		c.waveBase = n
	}
	for n-c.waveBase >= uint32(len(c.waves)) {
		c.waves = append(c.waves, nil)
	}
	c.waves[n-c.waveBase] = w
}

// clearWave empties wave n's slot and slides the window past any leading
// empty slots (windows are a handful of waves, so the shift is cheap).
func (c *ctxState) clearWave(n uint32) {
	if n >= c.waveBase && n-c.waveBase < uint32(len(c.waves)) {
		c.waves[n-c.waveBase] = nil
	}
	lead := 0
	for lead < len(c.waves) && c.waves[lead] == nil {
		lead++
	}
	if lead > 0 {
		k := copy(c.waves, c.waves[lead:])
		c.waves = c.waves[:k]
		c.waveBase += uint32(lead)
	}
}

// Engine assembles wave-ordered memory requests into the thread's total
// program order.
type Engine struct {
	issue   IssueFunc
	release func(*Request) // optional: receives each dead request
	ctxs    map[uint32]*ctxState
	top     *ctxState // innermost active context (issue point)
	root    *ctxState

	pending int
	stats   Stats

	// Freelists: context and wave buffering state recycled across
	// activations and runs (their maps and slices keep their capacity).
	csPool []*ctxState
	wsPool []*waveState

	// Structured tracing (nil when disabled). The engine is purely
	// logical, so the hosting simulator supplies the clock that stamps
	// trace records with simulated time.
	tr    *trace.Tracer
	clock func() int64

	// Retirement hooks (nil when disabled). onWaveDone fires when a
	// wave's last chain slot issues, before the context's wave counter
	// advances; onCtxEnd fires when a context's MemEnd issues, before
	// the context state is released, with the context's last wave — the
	// one that ends on the MemEnd and never completes. The hosting
	// simulator retires per-wave state on them, and speculative memory
	// modes use them as the transaction-epoch commit points.
	onWaveDone func(ctx, wave uint32)
	onCtxEnd   func(ctx, lastWave uint32)
}

// Stats counts ordering-engine activity.
type Stats struct {
	Submitted uint64
	Issued    uint64
	Loads     uint64
	Stores    uint64
	Nops      uint64
	Calls     uint64
	Ends      uint64
	WavesDone uint64
	// MaxPending is the high-water mark of buffered (arrived, unissued)
	// requests — the occupancy a hardware store buffer would need.
	MaxPending int
}

// NewEngine creates an ordering engine whose total order begins with context
// rootCtx, wave 0. Each issued request is delivered to issue exactly once,
// in program order.
func NewEngine(rootCtx uint32, issue IssueFunc) *Engine {
	e := &Engine{issue: issue, ctxs: make(map[uint32]*ctxState)}
	e.Reset(rootCtx)
	return e
}

// Reset rewinds the engine to the state NewEngine leaves it in — a fresh
// total order rooted at rootCtx — while keeping every backing array
// (context/wave freelists, the context map's buckets) for reuse. The issue
// callback, releaser, and tracer attachments are preserved.
func (e *Engine) Reset(rootCtx uint32) {
	for id, c := range e.ctxs {
		e.releaseCtx(c)
		delete(e.ctxs, id)
	}
	root := e.newCtxState(rootCtx)
	e.ctxs[rootCtx] = root
	e.top = root
	e.root = root
	e.pending = 0
	e.stats = Stats{}
}

// SetReleaser installs the request-recycling hook: each request is handed
// to f exactly once, after its issue callback has run and the engine holds
// no further reference to it. Requests buffered at Reset are NOT released
// (the hosting pool is expected to be reset alongside the engine). Pass
// nil to disable recycling.
func (e *Engine) SetReleaser(f func(*Request)) { e.release = f }

// SetRetireHooks installs the retirement callbacks: waveDone fires once
// per completed wave (its last chain slot has issued) with the context id
// and the wave number just retired; ctxEnd fires once per context whose
// MemEnd has issued, with the number of the wave the MemEnd closed (which
// waveDone never reports). Both run synchronously inside the issue drain, so
// they observe every earlier operation already issued and none later —
// the commit point a transactional memory epoch needs. Hooks survive
// Reset, like the issue callback and releaser. Pass nil to disable.
func (e *Engine) SetRetireHooks(waveDone func(ctx, wave uint32), ctxEnd func(ctx, lastWave uint32)) {
	e.onWaveDone = waveDone
	e.onCtxEnd = ctxEnd
}

// newCtxState takes a context from the freelist (or allocates one) and
// initializes it for the given id.
func (e *Engine) newCtxState(id uint32) *ctxState {
	var c *ctxState
	if n := len(e.csPool); n > 0 {
		c = e.csPool[n-1]
		e.csPool = e.csPool[:n-1]
		*c = ctxState{waves: c.waves[:0]}
	} else {
		c = &ctxState{}
	}
	c.id = id
	c.last = isa.WaveStart
	return c
}

// releaseCtx recycles a context and any wave state still buffered in it.
func (e *Engine) releaseCtx(c *ctxState) {
	for i, w := range c.waves {
		if w != nil {
			e.releaseWave(w)
		}
		c.waves[i] = nil
	}
	c.waves = c.waves[:0]
	e.csPool = append(e.csPool, c)
}

func (e *Engine) releaseWave(w *waveState) {
	w.reqs = w.reqs[:0]
	e.wsPool = append(e.wsPool, w)
}

// wavePooled takes a wave buffer from the freelist or allocates one.
func (e *Engine) wavePooled() *waveState {
	if n := len(e.wsPool); n > 0 {
		w := e.wsPool[n-1]
		e.wsPool = e.wsPool[:n-1]
		return w
	}
	return &waveState{}
}

// waveOf returns (creating if needed) c's buffer for wave n.
func (e *Engine) waveOf(c *ctxState, n uint32) *waveState {
	w := c.waveAt(n)
	if w == nil {
		w = e.wavePooled()
		c.setWave(n, w)
	}
	return w
}

// Stats returns a copy of the engine's counters.
func (e *Engine) Stats() Stats { return e.stats }

// AttachTracer installs the structured tracing sink (nil disables it).
// clock supplies the hosting simulator's current cycle; it must be
// non-nil when tr is.
func (e *Engine) AttachTracer(tr *trace.Tracer, clock func() int64) {
	e.tr, e.clock = tr, clock
}

// Pending reports how many submitted requests have not yet issued.
func (e *Engine) Pending() int { return e.pending }

// Done reports whether the root context's memory sequence has terminated.
func (e *Engine) Done() bool { return e.root.ended }

// Submit hands a request to the engine. The request (and possibly others
// unblocked by it) may issue synchronously before Submit returns. A request
// that cannot belong to any legal program order — one arriving after the
// program's memory sequence ended, carrying an unknown kind, or splicing a
// context twice — is reported as an error: a malformed binary fails its own
// run instead of crashing the process.
func (e *Engine) Submit(r *Request) error {
	if e.root.ended {
		return fmt.Errorf("waveorder: request %v after program memory sequence ended", r)
	}
	// Most requests belong to the context at the issue point; only one from
	// a caller's later wave or a not-yet-spliced child looks its context up.
	c := e.top
	if c.id != r.Ctx {
		c = e.ctxs[r.Ctx]
		if c == nil {
			c = e.newCtxState(r.Ctx)
			e.ctxs[r.Ctx] = c
		}
	}
	e.waveOf(c, r.Wave).add(r)
	e.pending++
	if e.pending > e.stats.MaxPending {
		e.stats.MaxPending = e.pending
	}
	e.stats.Submitted++
	if e.tr != nil {
		e.tr.Event(e.clock(), trace.KindMemSubmit, -1, int64(e.pending), 0)
	}
	return e.drain()
}

// drain issues every request that is now ordered, following chain links,
// wave completions, call splices, and context ends until no progress is
// possible.
func (e *Engine) drain() error {
	for {
		c := e.top
		if c == nil || c.ended {
			return nil
		}
		w := c.waveAt(c.curWave)
		if w == nil {
			return nil
		}
		next := w.take(c.last)
		if next == nil {
			return nil
		}
		if w.empty() {
			c.clearWave(c.curWave)
			e.releaseWave(w)
		}
		e.pending--
		if err := e.issueOne(c, next); err != nil {
			return err
		}
	}
}

func (e *Engine) issueOne(c *ctxState, r *Request) error {
	switch r.Kind {
	case isa.MemLoad:
		e.stats.Loads++
	case isa.MemStore:
		e.stats.Stores++
	case isa.MemNop:
		e.stats.Nops++
	case isa.MemCall:
		e.stats.Calls++
	case isa.MemEnd:
		e.stats.Ends++
	default:
		return fmt.Errorf("waveorder: issuing request %v with unknown kind %v", r, r.Kind)
	}
	e.stats.Issued++
	e.issue(r)

	switch r.Kind {
	case isa.MemCall:
		// Splice the child context's sequence in at this slot. The child
		// resumes the parent (at this call slot) when its MemEnd issues.
		child := e.ctxs[r.ChildCtx]
		if child == nil {
			child = e.newCtxState(r.ChildCtx)
			e.ctxs[r.ChildCtx] = child
		}
		if child.spliced {
			return fmt.Errorf("waveorder: context %d spliced twice (second call slot %v)", r.ChildCtx, r)
		}
		child.parent = c
		child.spliced = true
		child.call = r.order()
		e.top = child
		e.recycle(r)
	case isa.MemEnd:
		c.ended = true
		delete(e.ctxs, c.id)
		if c.parent != nil {
			e.top = c.parent
			// The call slot is now the parent's last issued operation; if
			// it closed the parent's wave, advance it.
			e.top.last = c.call
			if c.call.Succ == isa.SeqEnd {
				e.completeWave(e.top)
			}
		} else {
			e.top = nil
		}
		if e.onCtxEnd != nil {
			e.onCtxEnd(c.id, c.curWave)
		}
		e.releaseCtx(c)
		e.recycle(r)
		return nil
	default:
		c.last = r.order()
		if r.Succ == isa.SeqEnd {
			e.completeWave(c)
		}
		e.recycle(r)
	}
	return nil
}

// recycle hands a dead request back to the hosting pool, if one is
// installed. At this point the engine holds no reference to r: the chain
// position lives on as an annotation in its context.
func (e *Engine) recycle(r *Request) {
	if e.release != nil {
		e.release(r)
	}
}

func (e *Engine) completeWave(c *ctxState) {
	e.stats.WavesDone++
	if e.tr != nil {
		e.tr.Event(e.clock(), trace.KindWaveDone, -1, int64(c.id), int64(c.curWave))
	}
	if e.onWaveDone != nil {
		e.onWaveDone(c.id, c.curWave)
	}
	c.curWave++
	c.last = isa.WaveStart
}

// DebugState renders the engine's buffered requests; used in tests and by
// the simulators' deadlock diagnostics. Output is deterministic: contexts
// and waves sort by number, requests print in arrival order.
func (e *Engine) DebugState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pending=%d top=", e.pending)
	if e.top == nil {
		b.WriteString("<none>")
	} else {
		fmt.Fprintf(&b, "ctx%d w%d", e.top.id, e.top.curWave)
		if last := e.top.last; last == isa.WaveStart {
			b.WriteString(" last=" + isa.SeqString(isa.SeqStart))
		} else {
			fmt.Fprintf(&b, " last=%s(succ %s)", isa.SeqString(last.Seq), isa.SeqString(last.Succ))
		}
	}
	b.WriteString("\n")
	ids := make([]uint32, 0, len(e.ctxs))
	for id := range e.ctxs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		c := e.ctxs[id]
		// The window is ordered by wave number already.
		for i, w := range c.waves {
			if w == nil {
				continue
			}
			for _, r := range w.reqs {
				fmt.Fprintf(&b, "  ctx%d w%d: %v\n", id, c.waveBase+uint32(i), r)
			}
		}
	}
	return b.String()
}
