// Package wavecache is the cycle-level WaveCache simulator: the MICRO 2003
// WaveScalar processor. It executes dataflow binaries on a grid of clusters
// of processing elements with:
//
//   - tag-matching input queues and the dataflow firing rule, one firing
//     per PE per cycle;
//   - dynamic instruction placement (a pluggable policy) with per-PE
//     instruction stores, LRU replacement, and a swap-in penalty when a
//     referenced instruction is not resident;
//   - the hierarchical operand network (pod bypass / domain / cluster /
//     mesh) with per-link bandwidth, via internal/noc;
//   - per-cluster store buffers implementing wave-ordered memory: requests
//     travel to the buffer that owns their dynamic wave, issue in program
//     order (internal/waveorder), and access that cluster's L1 in the
//     directory-coherent hierarchy (internal/mem);
//   - finite input queues modeled as an overflow penalty when a PE's
//     waiting-token population exceeds its queue capacity.
//
// The simulator is discrete-event: tokens and memory messages carry
// timestamps, PEs and store buffers serialize at one operation per cycle,
// and the run's cycle count is the latest timestamp processed.
//
// The event loop never reads the isa.Program: reset predecodes it into a
// dense instruction table (dinstr) indexed by global instruction index, and
// events, placement homes, residency, and memory cookies all carry that
// index.
//
// Allocation discipline: the inner loop is allocation-free in steady state.
// Events live in a pooled slab (no interface boxing, records recycled on
// delivery) ordered by a calendar wheel of per-cycle FIFO buckets, each a
// list threaded through the slab records themselves, with an index-based
// 4-ary min-heap holding only the events outside the wheel's window;
// per-instruction operand matching, context metadata, and
// wave-to-buffer bindings use internal/tagtable's open-addressed tables and
// slabs; PE residency is one dense slice; memory requests and their
// reply-routing cookies recycle through freelists fed by the ordering
// engine's releaser hook. An Arena reuses all of this state — plus the
// network, memory hierarchy, and ordering engine — across runs.
// None of the pooling can perturb results: every pool hands out storage in
// an order that is a pure function of the (totally ordered) event schedule,
// and recycled records carry no state across uses.
package wavecache

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"wavescalar/internal/fault"
	"wavescalar/internal/isa"
	"wavescalar/internal/mem"
	"wavescalar/internal/noc"
	"wavescalar/internal/placement"
	"wavescalar/internal/profile"
	"wavescalar/internal/tagtable"
	"wavescalar/internal/trace"
	"wavescalar/internal/waveorder"
)

// MemoryMode selects the memory ordering strategy (experiment E4).
type MemoryMode int

const (
	// MemOrdered is wave-ordered memory: requests issue in program order as
	// the store buffers resolve their ordering chains, overlapping with
	// execution (the paper's contribution).
	MemOrdered MemoryMode = iota
	// MemSerial allows one memory operation in flight at a time, each
	// separated by the dependence-token round trip a dataflow machine
	// without ordering hardware would need to chain memory operations: the
	// conservative strawman wave-ordered memory replaces.
	MemSerial
	// MemIdeal is an oracle memory: values still obey program order, but
	// loads are timed as if ordering were free.
	MemIdeal
	// MemSpec is speculative transactional wave-ordered memory (the
	// Transactional WaveCache): requests stalled behind unresolved
	// wave-order predecessors access the cache speculatively on arrival,
	// stores buffering their values in a versioned store buffer; a
	// conflict detector validates each speculation at its program-order
	// commit point and squashes + replays the rest of the enclosing epoch —
	// the wave, the Transactional WaveCache's implicit per-wave
	// transaction — on a violation. Architectural values always
	// commit in program order, so results are bit-identical to MemOrdered;
	// only timing changes. See DESIGN.md §12.
	MemSpec
)

func (m MemoryMode) String() string {
	switch m {
	case MemOrdered:
		return "wave-ordered"
	case MemSerial:
		return "serialized"
	case MemIdeal:
		return "ideal"
	case MemSpec:
		return "spec"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMemoryMode maps a memory-mode name (the CLI -mem flag and the
// serve API's memmode field) to its MemoryMode. The empty string selects
// the default wave-ordered mode.
func ParseMemoryMode(name string) (MemoryMode, error) {
	switch name {
	case "", "wave-ordered":
		return MemOrdered, nil
	case "serialized":
		return MemSerial, nil
	case "ideal":
		return MemIdeal, nil
	case "spec":
		return MemSpec, nil
	}
	return MemOrdered, fmt.Errorf("unknown memory mode %q (wave-ordered, serialized, ideal, spec)", name)
}

// Config parameterizes the machine.
type Config struct {
	Machine placement.Machine

	// PEStore is the per-PE instruction store capacity.
	PEStore int
	// SwapPenalty is charged when a referenced instruction must be brought
	// into its PE's store.
	SwapPenalty int64
	// InputQueue is the per-PE token queue capacity; tokens beyond it pay
	// overflowPenalty (matching-table spill to memory).
	InputQueue int

	// BufferWidth is how many memory operations a cluster's store buffer
	// can issue per cycle (the published L1 sustains 4 accesses/cycle).
	BufferWidth int64

	// MemMsgLatency is the one-way latency of a memory message between a
	// PE and its own cluster's store buffer (a dedicated path, cheaper
	// than the general operand network). Waves bind to store buffers by
	// first touch, so the common case is cluster-local.
	MemMsgLatency int64

	Net noc.Config
	Mem mem.SystemConfig

	MemMode MemoryMode

	// Fuel bounds fired instructions (0 = 200M).
	Fuel int64

	// MaxCycles bounds simulated time: the watchdog aborts with a
	// diagnostic dump when an event's timestamp exceeds it (0 = unbounded).
	MaxCycles int64

	// Cancel, when non-nil, lets the caller abort a run in flight: the
	// event loop polls it every cancelPollInterval events and, once it is
	// closed, returns a *fault.FaultError of KindCancelled. This is how a
	// request deadline or a server drain reaches into a running
	// simulation (pass ctx.Done()). Cancellation is results-neutral: a
	// run that completes without observing Cancel is bit-identical to one
	// with Cancel nil, and an Arena aborted by Cancel is fully reusable —
	// the next Run resets it exactly as it would after a fault abort.
	Cancel <-chan struct{}

	// Faults configures deterministic fault injection; the zero value is a
	// perfect machine and leaves every result bit-identical to a build
	// without the fault subsystem. When Faults.DefectRate > 0 the caller
	// must install fault.DefectMap(Faults, NumPEs) as Machine.Defective
	// before constructing the placement policy, so placement and simulator
	// agree on which PEs are dead.
	Faults fault.Config

	// Tracer, when non-nil, records this run's timeline (the per-cycle
	// series plus, if configured, the event stream) and, at successful
	// completion, is stamped with the run's trace.Metrics. nil disables
	// tracing at zero cost and leaves Results bit-identical to a
	// tracer-free build. Like a placement policy, a Tracer belongs to one
	// run: never share one across concurrent Runs.
	Tracer *trace.Tracer

	// Metrics, when non-nil, receives the run's trace.Metrics at
	// successful completion, built from the engine's own counters; no
	// tracer is involved. The aggregate is thread-safe, so concurrent
	// experiment cells may share one.
	Metrics *trace.Aggregate
}

// overflowPenalty is the cycles a token pays to spill past a full
// matching table.
const overflowPenalty = 10

// DefaultConfig returns the published WaveScalar processor parameters on a
// w x h cluster grid.
func DefaultConfig(w, h int) Config {
	m := placement.DefaultMachine(w, h)
	return Config{
		Machine:       m,
		PEStore:       64,
		SwapPenalty:   32,
		InputQueue:    16,
		BufferWidth:   4,
		MemMsgLatency: 2,
		Net:           noc.DefaultConfig(w, h),
		Mem:           mem.DefaultSystemConfig(m.NumClusters()),
	}
}

// ParseGrid parses a cluster grid written "WxH" (the CLI -grid flag and the
// serve API's grid field). It is strict — exactly two decimal integers
// around one 'x', nothing else — and holds them to CheckGrid's bounds.
func ParseGrid(s string) (w, h int, err error) {
	if _, err := fmt.Sscanf(s, "%dx%d", &w, &h); err != nil || fmt.Sprintf("%dx%d", w, h) != s {
		return 0, 0, fmt.Errorf("bad grid %q (want WxH with W, H >= 1)", s)
	}
	if err := CheckGrid(w, h); err != nil {
		return 0, 0, err
	}
	return w, h, nil
}

// CheckGrid rejects a cluster grid no machine can have: a side below 1, or
// more clusters than the memory hierarchy has L1 slots for.
func CheckGrid(w, h int) error {
	if w < 1 || h < 1 {
		return fmt.Errorf("bad grid %dx%d (want WxH with W, H >= 1)", w, h)
	}
	if w > mem.MaxL1s || h > mem.MaxL1s || w*h > mem.MaxL1s {
		return fmt.Errorf("grid %dx%d has more than %d clusters", w, h, mem.MaxL1s)
	}
	return nil
}

// Result reports a simulation.
type Result struct {
	Value  int64
	Fired  uint64
	Cycles int64
	IPC    float64

	Tokens    uint64
	Swaps     uint64
	Overflows uint64
	PEsUsed   int

	Net    noc.Stats
	Mem    mem.Stats
	Order  waveorder.Stats
	Faults fault.Stats
	Spec   SpecStats
}

// cancelPollInterval is how many events the run loop processes between
// polls of Config.Cancel: small enough that cancellation lands within
// microseconds of wall-clock, large enough that the poll never shows up in
// a profile.
const cancelPollInterval = 1024

// event kinds.
type evKind uint8

const (
	evToken evKind = iota
	evFire
	evMemArrive
	evSpecProbe // MemSpec deferred-speculation probe (spec.go)
)

// event is one queue record, 64 bytes. Which fields a kind reads:
//
//	evToken      gi, home, port, tag, vals[0] (the token's value)
//	evFire       gi, home, tag, vals (the operand tuple)
//	evMemArrive  req
//	evSpecProbe  req, vals[0] (the packed (gen, cookie)); the req pointer is
//	             only dereferenced after the cookie generation check proves
//	             the request is still buffered in the ordering engine
//
// home is gi's home PE as the pusher knew it, or -1 for "unknown": the
// boot token, and every event queued when a PE dies (killPE). It sits in
// what was padding, so the record stays 64 bytes. next belongs to the queue,
// not to a kind: the slab index of the record behind this one in its wheel
// bucket.
type event struct {
	time int64
	kind evKind
	port uint8 // destination input port
	gi   int32 // destination instruction, global index
	next int32
	home int32 // gi's home PE, -1 when unknown
	tag  isa.Tag
	vals [3]int64
	req  *waveorder.Request
}

// heapEnt is one heap slot: the ordering key (time, seq) is stored inline
// so comparisons never load the event slab — sift paths touch only the
// contiguous heap array instead of chasing indices into cold slab records.
type heapEnt struct {
	time int64
	seq  uint64
	idx  int32
}

func entLess(a, b heapEnt) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// eventQueue is a pooled priority queue popping in (time, seq) order:
// events live in a slab addressed by index (recycled through a freelist
// when delivered). The tiebreak seq comes from the run-wide counter
// (sim.seq), so (time, seq) is a strict total order across the whole run
// and ANY correct priority queue yields the same pop sequence.
//
// It is a calendar wheel: events within wheelSize cycles of the drain
// cursor land in a ring of per-cycle FIFO buckets, making push and pop
// O(1). A bucket is a list threaded through the slab — head and tail
// indices in the ring, each record's successor in its own next field — so a
// pop reads the ring and then the record it returns, nothing in between. A
// 4-ary min-heap of inline (time, seq) keys holds everything else —
// the far future, and pushes back-dated behind the cursor (MemIdeal's
// oracle load replies are timed from the cycle the load fired, which the
// clock may already have passed). Exactness argument: the seq stamp is
// monotone in push order, so a bucket's FIFO *is* its (time, seq) order.
// A far-future heap entry was pushed before the window covered its cycle —
// i.e. before every direct push to that cycle's bucket — so at each cycle
// the heap's entries drain first, then the bucket. A back-dated entry is
// earlier than the cursor, hence earlier than every bucketed event and
// every far-future one, and pop's "heap front <= cursor" test hands
// it out next, in (time, seq) order among its peers; a push at exactly the
// cursor's cycle is not back-dated and joins the tail of the bucket being
// drained. The cursor never moves backwards and never runs ahead of the
// caller's clock, the running maximum of popped times.
// TestWheelQueueDifferential checks all of it against container/heap.
type eventQueue struct {
	slab []event
	free []int32
	heap []heapEnt

	cur  int64                  // drain cursor: the cycle currently being popped
	n    int                    // events resident in buckets
	ring [wheelSize]bucket      // per-cycle FIFOs, slot = cycle & wheelMask
	bmap [wheelSize / 64]uint64 // non-empty bitmap over the ring, for the cursor's jump

	backdated  uint64 // pushes that landed behind the cursor (tests read it)
	heapPushes uint64 // pushes that missed the ring, back-dated ones included
}

// bucket is one cycle's FIFO, linked head to tail through event.next: head
// is the slab index of its first record plus one, so the zero bucket is the
// empty one, and tail the index of its last (meaningful only while head is
// not 0). A bucket's bitmap bit is set exactly while it is not empty.
type bucket struct{ head, tail int32 }

// wheelSize is the ring span in cycles, sized to the latencies the machine
// has: the longest a message is scheduled ahead is a DRAM miss behind a
// coherence transfer or a retransmission backoff, a few hundred cycles, so a
// 512-cycle ring takes every push of a ten-kernel wave-ordered pass but one
// (of 18.5 million; a 4,096-cycle ring took them all) while its bucket
// headers and bitmap stay in L1 instead of cycling through L2. A push the
// ring does not cover rides the heap and pops in the same order — span is a
// host-speed constant, never a simulated one (TestWheelQueueDifferential) —
// and TestRingCoversDefaultLatencies notices if a later latency parameter
// outgrows it.
const (
	wheelBits = 9
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// reset empties the queue for a new run, including one a cancel or a fault
// abandoned with events still linked in its buckets: the slab is truncated
// and the ring and bitmap are zeroed.
func (q *eventQueue) reset() {
	q.slab = q.slab[:0]
	q.free = q.free[:0]
	q.heap = q.heap[:0]
	q.backdated, q.heapPushes = 0, 0
	q.ring = [wheelSize]bucket{}
	q.bmap = [wheelSize / 64]uint64{}
	q.n, q.cur = 0, 0
}

func (q *eventQueue) len() int { return len(q.heap) + q.n }

// alloc returns the index of an event record. Recycled records are NOT
// zeroed: every push site stamps all the fields its event kind reads (the
// table on the event type), so stale bytes from a prior tenant are never
// observed and the hot path skips a per-event memclr.
func (q *eventQueue) alloc() int32 {
	if n := len(q.free); n > 0 {
		i := q.free[n-1]
		q.free = q.free[:n-1]
		return i
	}
	q.slab = append(q.slab, event{})
	return int32(len(q.slab) - 1)
}

// release recycles a delivered event's slab index.
func (q *eventQueue) release(i int32) { q.free = append(q.free, i) }

// push enqueues slab index i under the key (t, seq); the caller stamps seq
// from the run-wide counter. Events within the ring window link at the tail
// of their cycle's FIFO; everything else (far future and back-dated) rides
// the heap.
func (q *eventQueue) push(i int32, t int64, seq uint64) {
	d := t - q.cur
	if uint64(d) < wheelSize {
		s := int(t) & wheelMask
		b := &q.ring[s]
		if b.head == 0 {
			q.bmap[s>>6] |= 1 << (uint(s) & 63)
			b.head = i + 1
		} else {
			q.slab[b.tail].next = i
		}
		b.tail = i
		q.n++
		return
	}
	if d < 0 {
		q.backdated++
	}
	q.heapPushes++
	q.heapPush(i, t, seq)
}

// heapPush sifts slab index i into the heap under the key (t, seq).
func (q *eventQueue) heapPush(i int32, t int64, seq uint64) {
	e := heapEnt{time: t, seq: seq, idx: i}
	h := append(q.heap, e)
	q.heap = h
	c := len(h) - 1
	for c > 0 {
		p := (c - 1) / 4
		if !entLess(e, h[p]) {
			break
		}
		h[c] = h[p]
		c = p
	}
	h[c] = e
}

// pop removes and returns the minimum event's slab index. The caller must
// ensure the queue is non-empty, copy the event out before the next alloc
// (growth may move the slab), and release the index when done.
//
// It drains in exact (time, seq) order: heap entries at or before the
// cursor first (back-dated ones are earlier than anything bucketed; ones at
// the cursor's cycle were pushed before any of the cycle's direct bucket
// entries, so their seq stamps are strictly smaller), then the bucket FIFO,
// unlinking its head; the bucket's bit clears with its last record, so a
// push at the cursor's cycle after that starts the bucket afresh. When the
// cycle is dry the cursor jumps straight to the next non-empty bucket or
// the heap's front time, whichever is earlier.
func (q *eventQueue) pop() int32 {
	for {
		if len(q.heap) > 0 && q.heap[0].time <= q.cur {
			return q.heapPop()
		}
		s := int(q.cur) & wheelMask
		b := &q.ring[s]
		if b.head != 0 {
			idx := b.head - 1
			if idx == b.tail {
				b.head = 0
				q.bmap[s>>6] &^= 1 << (uint(s) & 63)
			} else {
				b.head = q.slab[idx].next + 1
			}
			q.n--
			return idx
		}
		// Cycle exhausted: advance the cursor.
		nt := int64(-1)
		if d := q.nextBucketDelta(); d > 0 {
			nt = q.cur + int64(d)
		}
		if len(q.heap) > 0 && (nt < 0 || q.heap[0].time < nt) {
			nt = q.heap[0].time
		}
		q.cur = nt
	}
}

// nextBucketDelta scans the non-empty bitmap for the ring distance
// (1..wheelSize-1) from the cursor's slot to the nearest occupied bucket
// strictly after it, or -1 when the ring is empty. The cursor's own bucket
// is always empty when pop scans, so a full wrap terminates.
func (q *eventQueue) nextBucketDelta() int {
	cs := int(q.cur) & wheelMask
	for d := 1; d < wheelSize; {
		s := (cs + d) & wheelMask
		word := q.bmap[s>>6] >> (uint(s) & 63)
		if word != 0 {
			return d + bits.TrailingZeros64(word)
		}
		d += 64 - int(uint(s)&63)
	}
	return -1
}

// heapPop removes and returns the heap minimum's slab index.
func (q *eventQueue) heapPop() int32 {
	top := q.heap[0].idx
	n := len(q.heap) - 1
	hole := q.heap[n]
	h := q.heap[:n]
	q.heap = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		m := first
		me := h[first]
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if entLess(h[c], me) {
				m, me = c, h[c]
			}
		}
		if !entLess(me, hole) {
			break
		}
		h[i] = me
		i = m
	}
	h[i] = hole
	return top
}

// operands is a per-tag matching entry.
type operands struct {
	vals [3]int64
	have uint8
}

// matchSlot is an instruction's first-waiter slot: the partial tuple of the
// one tag waiting there, or of the first when several are. In the paper a
// token sits in its PE's matching table until its partner arrives, and nine
// times in ten nothing else is waiting at that instruction meanwhile, so the
// wait needs no hashing: the instruction's own slot holds the tuple, and only
// a second concurrently waiting tag spills to the instruction's tag table.
type matchSlot struct {
	key uint64 // packed tag of the waiter
	ops operands
}

// used reports whether a tuple is parked in the slot: a parked tuple holds at
// least the token that parked it, and a freed slot's have is zeroed.
func (sl *matchSlot) used() bool { return sl.ops.have != 0 }

// dinstr is one predecoded instruction: everything the event loop reads
// per token, in one record indexed by global instruction index
// (sim.instrBase[fn] + id), so deliver, fire, and send never touch the
// isa.Program. Destinations are already resolved to global indices.
type dinstr struct {
	op      isa.Opcode
	immMask uint8 // input ports fed by immediates
	full    uint8 // mask of all input ports: the tuple is complete at have == full
	tokens  int8  // tokens one firing consumes: inputs not fed by immediates
	fn      isa.FuncID
	id      isa.InstrID
	// target is OpSendArg's callee parameter pad, or OpNewCtx's return
	// landing pad in the caller (-1 for every other opcode).
	target     int32
	imm        int64
	immVals    [3]int64
	dests      []ddest // slices of sim.destArena
	destsFalse []ddest
	in         *isa.Instruction // the cold remainder: Mem
}

// ddest is a predecoded isa.Dest and its edge's route, resolved by the first
// send over it (home -1 until then): the destination's home PE and the
// operand-network route to it from the sending instruction's home. Both
// ends of an edge stay placed until a PE dies, and killPE forgets every
// route, so a resolved one is always what homePE and Network.Route would
// answer now.
type ddest struct {
	gi    int32
	home  int32
	route noc.Route
	port  uint8
}

// peState is one processing element. Its resident instructions are the
// nodes of an intrusive recency list (sim.resident maps an instruction to
// its node), so both the hit path (move to front) and the eviction victim
// (the tail) are O(1); recency order is total, so the victim cannot depend
// on any iteration order.
type peState struct {
	free    int64 // next cycle the ALU can fire
	lru     peLRU
	nres    int // resident instructions (the length of lru)
	waiting int // tokens delivered but not yet consumed by a firing
	used    bool
	fires   uint64 // instructions fired here (trace.Metrics.PEFires)
}

// peLRU is the doubly-linked recency list over one PE's resident
// instructions: most recently fired at head, eviction victim at tail.
// Nodes live in a reusable slab with an intrusive free list (next doubles
// as the free link), keeping the steady state allocation-free.
type peLRU struct {
	nodes []lruNode
	head  int32
	tail  int32
	free  int32
}

type lruNode struct {
	gi   int32 // the resident instruction
	prev int32
	next int32
}

func (l *peLRU) reset() {
	l.nodes = l.nodes[:0]
	l.head, l.tail, l.free = -1, -1, -1
}

// touch moves node i to the head.
func (l *peLRU) touch(i int32) {
	if l.head == i {
		return
	}
	n := &l.nodes[i]
	l.nodes[n.prev].next = n.next
	if n.next >= 0 {
		l.nodes[n.next].prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = -1, l.head
	l.nodes[l.head].prev = i
	l.head = i
}

// push inserts a new head node and returns its index.
func (l *peLRU) push(gi int32) int32 {
	i := l.free
	if i >= 0 {
		l.free = l.nodes[i].next
	} else {
		l.nodes = append(l.nodes, lruNode{})
		i = int32(len(l.nodes) - 1)
	}
	l.nodes[i] = lruNode{gi: gi, prev: -1, next: l.head}
	if l.head >= 0 {
		l.nodes[l.head].prev = i
	} else {
		l.tail = i
	}
	l.head = i
	return i
}

// popTail unlinks the least recently used node and returns its instruction.
func (l *peLRU) popTail() int32 {
	i := l.tail
	n := &l.nodes[i]
	l.tail = n.prev
	if l.tail >= 0 {
		l.nodes[l.tail].next = -1
	} else {
		l.head = -1
	}
	gi := n.gi
	n.next = l.free
	l.free = i
	return gi
}

// ctxInfo is a live context's call linkage: the caller's landing pad
// (global index, -1 for the boot context) and the tag to return under.
type ctxInfo struct {
	callerTag isa.Tag
	retPad    int32
}

// memCookie carries reply routing and timing through the ordering engine.
// Its stamps are the request's timeline: fired at its PE, arrived at its
// store buffer, and done (MemSpec's early completion, which the commit
// only raises). issueMem holds the other two points, eligible and granted.
type memCookie struct {
	gi      int32 // the requesting instruction
	tag     isa.Tag
	fired   int64
	arrived int64
	buf     int // store-buffer cluster bound at submit time

	// Speculation state (MemSpec only; zero otherwise). spec classifies
	// how the request executed ahead of its commit point, specSnap the
	// conflict-detector snapshot a load validates against, specUID the
	// forwarding store's uid (loads) or the request's own
	// versioned-store-buffer entry (stores). The enclosing epoch is the
	// wave's binding, found by tag. gen is the cookie's liveness stamp: a
	// deferred-speculation probe only acts when the generation it captured
	// at arrival still matches (issueMem zeroes it), so a probe can never
	// touch a recycled cookie.
	spec     uint8
	gen      uint32
	done     int64
	specSnap uint32
	specUID  uint32
}

// tagKey packs a dynamic tag into a table key.
func tagKey(t isa.Tag) uint64 { return uint64(t.Ctx)<<32 | uint64(t.Wave) }

type sim struct {
	prog *isa.Program // read by predecode, boot, and error text only
	pol  placement.Policy
	cfg  Config

	net    *noc.Network
	memsys mem.System
	engine *waveorder.Engine
	clock  func() int64 // stable closure handed to the engine's tracer

	// The event queue, ordered by the run-wide (time, seq) key.
	q   eventQueue
	seq uint64

	now  int64
	maxT int64

	// homes caches placement: global instruction index -> home PE, -1
	// unresolved. Entries fill lazily through the policy — preserving the
	// dynamic policies' first-reference packing order exactly — and a
	// mid-run PE death clears the dead PE's entries, so a miss is an
	// instruction's first reference or its first after its home died: the
	// two moments a placement is traced.
	// locs caches Machine.Loc, which is a pure function of the geometry.
	homes []int32
	locs  []noc.Loc

	// code is the predecoded program, indexed like homes; destArena backs
	// its destination lists.
	code      []dinstr
	destArena []ddest
	instrBase []int

	// Operand matching, per static instruction: slots holds the first
	// waiting tag's partial tuple, opstore (packed tag -> opSlab index) those
	// of any further tags waiting at the same time.
	slots   []matchSlot
	opstore []tagtable.Table
	opSlab  tagtable.Slab[operands]
	// resident maps an instruction to its node in its home PE's recency
	// list, -1 when it is not in the instruction store. One slice serves
	// every PE because an instruction is only ever resident at its home.
	resident []int32
	pes      []peState
	bufBusy  []noc.Port // per-cluster store-buffer issue bandwidth

	// mode is the run's memory-ordering mode (memorder.go), bound by reset;
	// serial is the one mode value with state, kept here so binding it does
	// not allocate.
	mode   memOrdering
	serial serialized

	memImage []int64
	// ctxTab maps live context ids to ctxSlab indices holding call metadata.
	ctxTab  tagtable.Table
	ctxSlab tagtable.Slab[ctxInfo]
	nextCtx uint32

	// waveBuf holds each live dynamic wave's binding, keyed by packed tag:
	// its store-buffer cluster and its MemSpec epoch bits (see epochOpened),
	// bound at first touch, deleted when the wave retires.
	waveBuf     tagtable.Table
	lastWaveOK  bool // the previous bufferCluster call's binding
	lastWaveKey uint64
	lastWaveBuf int
	// retired, when a test makes it non-nil, collects every unbound wave;
	// lateBinds counts bindings then made for one of them — memory messages
	// that arrived after their wave retired (see bufferCluster).
	retired   map[uint64]struct{}
	lateBinds int

	// ckSlab pools memCookies; requests carry slab indices, not pointers,
	// so cookies never box. reqFree pools the Request records themselves,
	// refilled by the ordering engine's releaser the moment each request
	// has issued.
	ckSlab  tagtable.Slab[memCookie]
	reqFree []*waveorder.Request
	// ckGen stamps each cookie with a run-unique generation (MemSpec
	// probe liveness; see memCookie.gen).
	ckGen uint32

	// spec is the MemSpec speculation subsystem (spec.go): versioned
	// store buffer and conflict detector (the epochs are the wave
	// bindings). Quiescent in every other mode.
	spec specState

	fuel   int64
	done   bool
	result int64

	// Fault machinery (all nil/false on a perfect machine).
	inj    *fault.Injector
	killed bool  // the scheduled mid-run PE death has happened
	memErr error // unrecoverable fault raised inside the issueMem callback

	// tr is the run's tracer (nil = disabled; every emission is either a
	// nil-safe call or guarded so the disabled path costs one branch).
	tr *trace.Tracer

	// The counts trace.Metrics holds beyond Result (metrics builds it);
	// fires per PE are peState.fires and link use is the network's.
	maxQueue   int    // deepest operand queue a delivery left behind
	orderStall uint64 // Σ eligible − arrived: cycles requests sat buffered
	placements uint64 // homes the placement policy resolved (homePE misses)

	// res accumulates the run's result; its Fired/Tokens/Swaps/Overflows
	// are the live execution counters, so they are current whenever a
	// diagnostic or cancellation message reads them.
	res Result

	// The engine fence (fence.go): the commit-trace digests issueMem folds
	// and the work counters that are not derived from other state.
	commit, commitStores uint64
	work                 Work
}

// Arena is a reusable simulator: it owns the complete mutable memory image
// of a run (event slab and heap, operand tables, PE state, memory image,
// network, cache hierarchy, ordering engine, every freelist) and Run resets
// it in place, so a caller sweeping many configurations — an experiment
// harness — pays the simulator's allocations once per worker instead of
// once per cell. Backing arrays are kept at their high-water mark across
// runs; a shape change (different grid, different program) resizes them and
// subsequent runs at that shape are allocation-free again.
//
// An Arena is not safe for concurrent use and must not be copied after
// first use (internal closures capture its address). Results are
// bit-identical to the package-level Run: reuse only recycles storage,
// never state.
type Arena struct {
	s sim
}

// NewArena returns an empty arena; the first Run sizes it.
func NewArena() *Arena { return &Arena{} }

// Run simulates a program to completion under a placement policy, reusing
// the arena's storage. The contract matches the package-level Run.
func (a *Arena) Run(p *isa.Program, pol placement.Policy, cfg Config) (Result, error) {
	if err := a.s.reset(p, pol, cfg); err != nil {
		return Result{}, err
	}
	return a.s.run()
}

// Run simulates a program to completion under a placement policy.
//
// Concurrency contract: Run treats p as strictly read-only — the simulator
// takes interior pointers into p.Funcs[*].Instrs for speed but never
// writes through them, and its mutable state (memory image, operand
// stores, PE/buffer state, the ordering engine) is private to the call.
// Any number of Runs may therefore share one *isa.Program concurrently
// (exercised under the race detector by TestConcurrentRunsShareProgram).
// The placement policy IS mutated during the run: construct a fresh Policy
// per call, with any seed derived deterministically per cell, and never
// share one across goroutines. Identical (p, policy construction, cfg)
// inputs produce bit-identical Results.
func Run(p *isa.Program, pol placement.Policy, cfg Config) (Result, error) {
	return NewArena().Run(p, pol, cfg)
}

// reset rewinds the simulator to boot state for (p, pol, cfg), reusing
// every backing array whose shape still fits. It performs exactly the
// validation newSim used to, in the same order, so error behaviour is
// unchanged.
func (s *sim) reset(p *isa.Program, pol placement.Policy, cfg Config) error {
	if cfg.Fuel == 0 {
		cfg.Fuel = 200_000_000
	}
	if cfg.PEStore < 1 {
		// An empty store would have deliver evict from an empty LRU list.
		return &fault.FaultError{Kind: fault.KindConfig, PE: -1,
			Detail: fmt.Sprintf("PEStore %d: a PE must hold at least one instruction", cfg.PEStore)}
	}
	if s.net == nil {
		net, err := noc.New(cfg.Net)
		if err != nil {
			return err
		}
		s.net = net
	} else if err := s.net.Reset(cfg.Net); err != nil {
		return err
	}
	if err := s.memsys.Reset(cfg.Mem); err != nil {
		return err
	}

	s.prog, s.pol, s.cfg = p, pol, cfg
	s.memImage = p.FillMemory(s.memImage)

	s.q.reset()
	s.opSlab.Reset()

	s.seq = 0
	s.now, s.maxT = 0, 0
	s.nextCtx = 1
	s.fuel = cfg.Fuel
	s.done, s.result = false, 0
	s.inj, s.killed, s.memErr = nil, false, nil
	s.res = Result{}
	s.commit, s.commitStores, s.work = 0, 0, Work{}
	s.maxQueue, s.orderStall, s.placements = 0, 0, 0

	s.ctxTab.Reset()
	s.ctxSlab.Reset()
	s.waveBuf.Reset()
	s.lastWaveOK = false
	s.ckSlab.Reset()
	s.ckGen = 0

	s.tr = cfg.Tracer
	s.net.AttachTracer(s.tr)
	if cfg.Faults.Enabled() {
		inj, err := fault.NewInjector(cfg.Faults)
		if err != nil {
			return err
		}
		s.inj = inj
		inj.AttachTracer(s.tr)
		if cfg.Faults.DefectRate > 0 && cfg.Machine.Defective == nil {
			return &fault.FaultError{Kind: fault.KindConfig, PE: -1,
				Detail: "DefectRate set but Machine.Defective is nil; install fault.DefectMap before building the placement policy"}
		}
		if cfg.Faults.KillCycle > 0 && (cfg.Faults.KillPE < 0 || cfg.Faults.KillPE >= cfg.Machine.NumPEs()) {
			return &fault.FaultError{Kind: fault.KindConfig, PE: cfg.Faults.KillPE,
				Detail: fmt.Sprintf("kill PE outside machine (0..%d)", cfg.Machine.NumPEs()-1)}
		}
		s.res.Faults.DefectivePEs = fault.CountDefects(cfg.Machine.Defective)
	}

	s.predecode(p)
	total := len(s.code)
	// Resize-then-reset: the reset loops run after the new lengths are
	// established, so they also scrub any stale records a reslice-up just
	// exposed from the capacity region.
	s.slots = resize(s.slots, total)
	clear(s.slots)
	s.opstore = resize(s.opstore, total)
	for i := range s.opstore {
		s.opstore[i].Reset()
	}
	s.homes = resize(s.homes, total)
	s.resident = resize(s.resident, total)
	for i := range s.homes {
		s.homes[i] = -1
		s.resident[i] = -1
	}
	npe := cfg.Machine.NumPEs()
	s.locs = resize(s.locs, npe)
	for i := range s.locs {
		s.locs[i] = cfg.Machine.Loc(i)
	}
	s.pes = resize(s.pes, npe)
	for i := range s.pes {
		ps := &s.pes[i]
		ps.free, ps.nres, ps.waiting, ps.used, ps.fires = 0, 0, 0, false, 0
		ps.lru.reset()
	}
	s.bufBusy = resize(s.bufBusy, cfg.Machine.NumClusters())
	clear(s.bufBusy)

	if s.engine == nil {
		s.engine = waveorder.NewEngine(0, s.issueMem)
		s.engine.SetReleaser(func(r *waveorder.Request) { s.reqFree = append(s.reqFree, r) })
		s.engine.SetRetireHooks(s.waveRetire, s.waveRetire)
		s.clock = func() int64 { return s.now }
	} else {
		s.engine.Reset(0)
	}
	s.engine.AttachTracer(s.tr, s.clock)
	// Bind the memory-ordering mode. The speculation state is reset in every
	// mode: Result.Spec must read zero outside spec mode on an Arena an
	// earlier MemSpec run used.
	s.spec.reset()
	switch cfg.MemMode {
	case MemSerial:
		s.serial = serialized{}
		s.mode = &s.serial
	case MemIdeal:
		s.mode = ideal{}
	case MemSpec:
		s.mode = speculative{}
	default:
		s.mode = waveOrdered{}
	}
	return nil
}

// resize returns s with length n, reusing its backing array when it fits;
// the caller resets every element.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]T, n)
}

// predecode rebuilds instrBase, code and destArena for p. It runs on every
// reset — a few hundred records — so a caller may change a program between
// two runs on one Arena.
func (s *sim) predecode(p *isa.Program) {
	s.instrBase = s.instrBase[:0]
	total, ndests := 0, 0
	for fi := range p.Funcs {
		s.instrBase = append(s.instrBase, total)
		total += len(p.Funcs[fi].Instrs)
		ndests += len(p.Funcs[fi].Dests)
	}
	s.code = resize(s.code, total)
	// Sized before any list is cut from it: the dinstrs hold slices of it.
	arena := resize(s.destArena, ndests)
	lo := 0
	for fi := range p.Funcs {
		f := &p.Funcs[fi]
		base := s.instrBase[fi]
		fd := arena[lo : lo+len(f.Dests)]
		for i, d := range f.Dests {
			fd[i] = ddest{gi: int32(base + int(d.Instr)), home: -1, port: d.Port}
		}
		lo += len(f.Dests)
		for ii := range f.Instrs {
			in := &f.Instrs[ii]
			need := in.Op.NumInputs()
			mid := int(in.DestLo) + int(in.NDests)
			hi := mid + int(in.NFalse)
			di := dinstr{
				op: in.Op, immMask: in.ImmMask, full: uint8(1)<<need - 1,
				tokens: int8(need - bits.OnesCount8(in.ImmMask)),
				fn:     isa.FuncID(fi), id: isa.InstrID(ii), target: -1,
				imm: in.Imm, immVals: in.ImmVals,
				dests: fd[in.DestLo:mid:mid], destsFalse: fd[mid:hi:hi],
				in: in,
			}
			// An out-of-range target is left at -1 and faults when (if) the
			// instruction fires, as indexing the program did.
			switch in.Op {
			case isa.OpSendArg:
				if t := int(in.Target); t >= 0 && t < len(p.Funcs) {
					if pad := int(in.TargetPad); pad >= 0 && pad < len(p.Funcs[t].Params) {
						di.target = int32(s.instrBase[t] + int(p.Funcs[t].Params[pad]))
					}
				}
			case isa.OpNewCtx:
				di.target = int32(base + int(in.TargetPad))
			}
			s.code[base+ii] = di
		}
	}
	s.destArena = arena
}

// allocReq takes a request record from the pool (or allocates one). The
// caller overwrites every field.
func (s *sim) allocReq() *waveorder.Request {
	if n := len(s.reqFree); n > 0 {
		r := s.reqFree[n-1]
		s.reqFree = s.reqFree[:n-1]
		return r
	}
	return &waveorder.Request{}
}

func (s *sim) run() (Result, error) {
	// Boot: context 0 trigger lands on the entry function's pad 0.
	mi := s.ctxSlab.Alloc()
	*s.ctxSlab.At(mi) = ctxInfo{retPad: -1}
	s.ctxTab.Put(0, int64(mi))
	entry := s.prog.Entry
	s.pushToken(0, int32(s.instrBase[entry]+int(s.prog.Funcs[entry].Params[0])), -1, 0,
		isa.Tag{Ctx: 0, Wave: 0}, 0)

	if err := s.loop(); err != nil {
		return Result{}, err
	}
	if !s.done {
		return Result{}, &fault.FaultError{Kind: fault.KindWatchdog, PE: -1, Cycle: s.maxT,
			Detail: "deadlock — event queue drained without program return\n" + s.diagnose()}
	}

	s.res.Value = s.result
	s.res.Cycles = s.maxT + 1
	if s.res.Cycles > 0 {
		s.res.IPC = float64(s.res.Fired) / float64(s.res.Cycles)
	}
	s.res.Net = s.net.Stats()
	s.res.Mem = s.memsys.Stats()
	s.res.Order = s.engine.Stats()
	s.res.Spec = s.spec.st
	if s.inj != nil {
		s.res.Faults.Operand = s.inj.Stats(fault.Operand)
		s.res.Faults.StoreBuffer = s.inj.Stats(fault.StoreBuffer)
	}
	for i := range s.pes {
		if s.pes[i].used {
			s.res.PEsUsed++
		}
	}
	if s.cfg.Metrics != nil || s.tr != nil {
		m := s.metrics()
		s.cfg.Metrics.Merge(m)
		s.tr.SetMetrics(m)
	}
	return s.res, nil
}

// metrics builds the finished run's trace.Metrics from the Result and the
// arena's own counters.
func (s *sim) metrics() *trace.Metrics {
	r := &s.res
	fo, fs := r.Faults.Operand, r.Faults.StoreBuffer
	m := &trace.Metrics{
		Runs: 1, Cycles: r.Cycles,
		Fires: r.Fired, Tokens: r.Tokens, Swaps: r.Swaps, Overflows: r.Overflows,
		MaxQueueDepth: int64(s.maxQueue),

		PodMsgs: r.Net.PodLocal, DomainMsgs: r.Net.DomainHops, ClusterMsgs: r.Net.ClusterBus,
		MeshMsgs: r.Net.MeshMsgs, MeshHops: r.Net.MeshHops, LinkStallCycles: r.Net.StallCycles,
		Links: slices.Clone(s.net.LinkUse()),

		MemSubmitted: r.Order.Submitted, MemIssued: r.Order.Issued,
		OrderStallCycles: s.orderStall, MaxPending: int64(r.Order.MaxPending),
		WavesDone: r.Order.WavesDone,

		SpecIssued: r.Spec.Issued, SpecForwards: r.Spec.Forwards, SpecConflicts: r.Spec.Conflicts,
		SpecSquashes: r.Spec.Squashes, SpecReplayedOps: r.Spec.ReplayedOps,
		SpecCycles: r.Spec.SpecCycles, SpecReplayCycles: r.Spec.ReplayCycles,

		Drops: fo.Drops + fs.Drops, Retries: fo.Retries + fs.Retries,
		RetryWaitCycles: fo.RetryWait + fs.RetryWait, PEKills: r.Faults.PEKills,

		Placements:    s.placements,
		EventsDropped: s.tr.EventsDropped(),
	}
	m.PEFires = make([]uint64, len(s.pes))
	m.ClusterFires = make([]uint64, s.cfg.Machine.NumClusters())
	m.DomainFires = make([][]uint64, len(m.ClusterFires))
	for c := range m.DomainFires {
		m.DomainFires[c] = make([]uint64, placement.DomainsPerCluster)
	}
	for pe := range s.pes {
		n, l := s.pes[pe].fires, s.locs[pe]
		m.PEFires[pe] = n
		m.ClusterFires[l.Cluster] += n
		m.DomainFires[l.Cluster][l.Domain] += n
	}
	return m
}

// loop is the event loop: events processed strictly in (time, seq) order.
func (s *sim) loop() error {
	// Cancellation poll state: checking a channel per event would slow the
	// hot path, so the loop looks at Cancel once every cancelPollInterval
	// events — a few microseconds of cancellation latency, zero cost when
	// Cancel is nil.
	cancelLeft := cancelPollInterval
	cancel := s.cfg.Cancel
	maxCycles := s.cfg.MaxCycles
	killAt := s.cfg.Faults.KillCycle
	q := &s.q
	for q.len() > 0 {
		if cancel != nil {
			cancelLeft--
			if cancelLeft <= 0 {
				cancelLeft = cancelPollInterval
				select {
				case <-cancel:
					return s.cancelErr()
				default:
				}
			}
		}
		idx := q.pop()
		// Copy the event out before releasing: processing it pushes new
		// events, and slab growth would move the storage under a pointer.
		e := q.slab[idx]
		q.release(idx)
		if killAt > 0 && !s.killed && e.time >= killAt {
			if err := s.killPE(); err != nil {
				return err
			}
			e.home = -1 // the copy killPE did not see
		}
		if maxCycles > 0 && e.time > maxCycles {
			return s.watchdogErr(e.time)
		}
		if e.kind == evSpecProbe && !s.specProbeLive(&e) {
			// A probe whose request already issued is a no-op; dropping
			// it before the clock bookkeeping keeps dead probes queued
			// past the last real event from padding the cycle count.
			continue
		}
		if e.time > s.now {
			s.now = e.time
		}
		if e.time > s.maxT {
			s.maxT = e.time
		}
		var err error
		switch e.kind {
		case evToken:
			err = s.deliver(&e)
		case evFire:
			err = s.fire(&e)
		case evMemArrive:
			if err = s.mode.arrive(s, e.req); err == nil {
				err = s.memErr
			}
		default: // evSpecProbe; the dead ones were dropped above
			s.specArrival(e.req)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// specProbeLive reports whether a deferred-speculation probe's request is
// still buffered in the ordering engine: its cookie generation must match
// the one captured at arrival (issueMem zeroes it at issue, and slab
// reuse re-stamps it with a fresh generation).
func (s *sim) specProbeLive(e *event) bool {
	pv := uint64(e.vals[0])
	return s.ckSlab.At(int32(uint32(pv))).gen == uint32(pv>>32)
}

func (s *sim) cancelErr() error {
	return &fault.FaultError{Kind: fault.KindCancelled, PE: -1, Cycle: s.now,
		Detail: fmt.Sprintf("run cancelled by caller (t=%d, %d events queued, %d instructions fired)",
			s.now, s.q.len(), s.res.Fired)}
}

func (s *sim) watchdogErr(t int64) error {
	return &fault.FaultError{Kind: fault.KindWatchdog, PE: -1, Cycle: t,
		Detail: fmt.Sprintf("no completion within %d cycles\n%s", s.cfg.MaxCycles, s.diagnose())}
}

func (s *sim) pushToken(t int64, gi, home int32, port uint8, tag isa.Tag, val int64) {
	q := &s.q
	i := q.alloc()
	e := &q.slab[i]
	e.time, e.kind, e.port, e.gi, e.home, e.tag, e.vals[0] = t, evToken, port, gi, home, tag, val
	q.push(i, t, s.seq)
	s.seq++
}

func (s *sim) pushFire(t int64, gi, home int32, tag isa.Tag, vals [3]int64) {
	q := &s.q
	i := q.alloc()
	e := &q.slab[i]
	e.time, e.kind, e.gi, e.home, e.tag, e.vals = t, evFire, gi, home, tag, vals
	q.push(i, t, s.seq)
	s.seq++
}

func (s *sim) pushMem(t int64, req *waveorder.Request) {
	q := &s.q
	i := q.alloc()
	e := &q.slab[i]
	e.time, e.kind, e.req = t, evMemArrive, req
	q.push(i, t, s.seq)
	s.seq++
}

// pushSpecProbe schedules a deferred-speculation probe for a buffered
// request on the current cycle (MemSpec only); the packed (generation,
// cookie) rides vals[0].
func (s *sim) pushSpecProbe(req *waveorder.Request) {
	t := s.now
	ci := int32(req.Cookie)
	pv := int64(uint64(s.ckSlab.At(ci).gen)<<32 | uint64(uint32(ci)))
	q := &s.q
	i := q.alloc()
	e := &q.slab[i]
	e.time, e.kind, e.vals[0], e.req = t, evSpecProbe, pv, req
	q.push(i, t, s.seq)
	s.seq++
}

// homePE resolves an instruction's home through the dense cache, falling
// back to the placement policy — and recording the placement — on a miss.
func (s *sim) homePE(gi int32) int {
	if pe := s.homes[gi]; pe >= 0 {
		return int(pe)
	}
	di := &s.code[gi]
	pe := s.pol.Assign(profile.InstrRef{Func: di.fn, Instr: di.id})
	s.homes[gi] = int32(pe)
	s.placements++
	s.tr.Place(int(di.fn), int(di.id), pe)
	return pe
}

func (s *sim) loc(pe int) noc.Loc { return s.locs[pe] }

// eventHome is the home PE of an event's instruction: the one it carries,
// else homePE's answer.
func (s *sim) eventHome(e *event) int {
	if e.home >= 0 {
		return int(e.home)
	}
	return s.homePE(e.gi)
}

// deliver lands a token at its destination PE — the home the token
// carries, looked up only when it carries none — applying queue-overflow
// penalties, tag matching, instruction-store residency, and PE firing
// bandwidth; a complete operand tuple schedules the firing at that home.
//
// Matching-table bypass: an instruction whose other inputs are all
// immediates completes its tuple on this very token, so the table's
// Get/Put/Delete round trip — which would create an entry and remove it
// again before returning — is skipped. Everything observable is kept: the
// overflow check sees the same waiting count, waiting still rises by one
// token and falls by the firing's, and a token aimed at an immediate port
// (or a port the opcode does not have) fails the bypass test and takes the
// matching path, where it collides or parks exactly as before.
//
// Matching is bypass, then first-waiter slot, then table: of the tokens that
// do wait for a partner, 91.4% (5.17 M of 5.65 M on a ten-kernel pass) meet
// at most one other tag waiting at their instruction, and their tuple lives
// in the instruction's matchSlot — no hash, no slab record. What the paths
// share is kept the same whichever holds the tuple: the collision error, the
// waiting count and the overflow check read nothing of where a tuple sits.
func (s *sim) deliver(e *event) error {
	s.res.Tokens++
	gi := e.gi
	pe := s.eventHome(e)
	ps := &s.pes[pe]
	ps.used = true

	t := e.time
	if ps.waiting >= s.cfg.InputQueue {
		// Matching-table overflow spills to memory.
		s.res.Overflows++
		t += overflowPenalty
		s.tr.Event(e.time, trace.KindOverflow, pe, 0, 0)
	}
	ps.waiting++
	s.maxQueue = max(s.maxQueue, ps.waiting)
	if s.tr != nil {
		s.tr.Event(e.time, trace.KindToken, pe, int64(ps.waiting), 0)
	}

	di := &s.code[gi]
	bit := uint8(1) << e.port
	var vals [3]int64
	if di.immMask|bit == di.full && di.immMask&bit == 0 {
		vals = di.immVals
		vals[e.port] = e.vals[0]
	} else {
		// The tuple this token joins is in the slot, else in the table, else
		// it is new: in the slot if that is free, in the table if another
		// tag is waiting there. The table is asked before a new tuple parks
		// because a tag that arrived while the slot was busy sits in the
		// table still after the slot has freed (a Get on an empty table
		// returns at once).
		key := tagKey(e.tag)
		sl := &s.slots[gi]
		tbl := &s.opstore[gi]
		var ops *operands
		oi := int64(-1) // the tuple's opSlab index when the table holds it
		if sl.used() && sl.key == key {
			ops = &sl.ops
		} else if ti, ok := tbl.Get(key); ok {
			oi = ti
			ops = s.opSlab.At(int32(oi))
		} else if !sl.used() {
			sl.key = key
			sl.ops = operands{vals: di.immVals, have: di.immMask}
			ops = &sl.ops
		} else {
			oi = int64(s.opSlab.Alloc())
			ops = s.opSlab.At(int32(oi))
			ops.have, ops.vals = di.immMask, di.immVals
			tbl.Put(key, oi)
		}
		if oi < 0 {
			s.work.SlotMatched++
		} else {
			s.work.TableMatched++
		}
		if ops.have&bit != 0 {
			return fmt.Errorf("wavecache: token collision at %s/i%d port %d tag %v",
				s.prog.Funcs[di.fn].Name, di.id, e.port, e.tag)
		}
		ops.have |= bit
		ops.vals[e.port] = e.vals[0]
		if ops.have != di.full {
			return nil
		}
		vals = ops.vals
		if oi < 0 {
			sl.ops.have = 0
		} else {
			tbl.Delete(key)
			s.opSlab.Release(int32(oi))
		}
	}
	ps.waiting -= int(di.tokens)

	// Residency: fetch the instruction into the PE store if absent.
	if ni := s.resident[gi]; ni >= 0 {
		ps.lru.touch(ni)
	} else {
		s.res.Swaps++
		t += s.cfg.SwapPenalty
		s.tr.Event(e.time, trace.KindSwap, pe, 0, 0)
		if ps.nres >= s.cfg.PEStore {
			// Evict the least recently used instruction: the list tail.
			s.resident[ps.lru.popTail()] = -1
			ps.nres--
		}
		s.resident[gi] = ps.lru.push(gi)
		ps.nres++
	}

	// One firing per PE per cycle.
	fireAt := t
	if ps.free > fireAt {
		fireAt = ps.free
	}
	ps.free = fireAt + 1
	s.pushFire(fireAt, gi, int32(pe), e.tag, vals)
	return nil
}

// send routes an output token from fromPE, the sending instruction's home,
// over each of its edges. An edge's first send resolves its destination's
// home — through homePE, where the policy sees the reference — and its
// route; later sends reuse both, and the token carries the home to deliver.
// An intra-cluster route costs no call into the network (carryLocal);
// every other message takes sendOperand. Under fault injection each
// message rides the ack/retransmit protocol; retry exhaustion surfaces as a
// structured *fault.FaultError.
func (s *sim) send(fromPE int, dests []ddest, tag isa.Tag, val int64, t int64) error {
	for i := range dests {
		d := &dests[i]
		if d.home < 0 {
			d.home = int32(s.homePE(d.gi))
			d.route = s.route(fromPE, int(d.home))
		}
		arr, ok := s.carryLocal(d.route, t)
		if !ok {
			var err error
			if arr, err = s.sendOperand(fromPE, d.route, t); err != nil {
				return err
			}
		}
		s.pushToken(arr, d.gi, d.home, d.port, tag, val)
	}
	return nil
}

// carryLocal is noc.Network.CarryLocal inlined into send's loop: an
// intra-cluster route's fixed latency and counter, taken only when no
// fault protocol has to wrap the message.
func (s *sim) carryLocal(r noc.Route, t int64) (int64, bool) {
	if s.inj != nil {
		return 0, false
	}
	return s.net.CarryLocal(r, t)
}

// route resolves the operand-network route between two PEs.
func (s *sim) route(fromPE, toPE int) noc.Route { return s.net.Route(s.locs[fromPE], s.locs[toPE]) }

// sendOperand times one operand-network message over a resolved route,
// under the operand fault stream's loss/retransmit protocol when faults are
// injected.
func (s *sim) sendOperand(fromPE int, r noc.Route, t int64) (int64, error) {
	if s.inj == nil {
		return s.net.Carry(r, t), nil
	}
	return s.inj.Transit(fault.Operand, t, fromPE, func(send int64) int64 { return s.net.Carry(r, send) })
}

// memHop times one store-buffer message (PE -> buffer or buffer -> PE):
// the dedicated short path when cluster-local, the mesh otherwise, under
// the memory fault stream's loss/retransmit protocol.
func (s *sim) memHop(src, dst noc.Loc, t int64, pe int) (int64, error) {
	transport := func(send int64) int64 {
		if src.Cluster == dst.Cluster {
			return send + s.cfg.MemMsgLatency
		}
		return s.net.Send(src, dst, send)
	}
	if s.inj == nil {
		return transport(t), nil
	}
	return s.inj.Transit(fault.StoreBuffer, t, pe, transport)
}

// killPE executes the scheduled mid-run PE death: the placement policy is
// reconfigured so the dead PE is never assigned again, its resident
// instructions migrate (their homes re-place lazily on next reference),
// and its matching-table state is replayed against the new homes. Every
// home a route or an event holds is forgotten — every edge's route, and
// the home of every event in the queue (the loop clears the one it is
// handling) — so tokens already in flight re-route: their delivery and
// firing look the home up afresh, and so does each edge's next send.
func (s *sim) killPE() error {
	s.killed = true
	pe := s.cfg.Faults.KillPE
	at := s.cfg.Faults.KillCycle
	rc, ok := s.pol.(placement.Reconfigurable)
	if !ok {
		return &fault.FaultError{Kind: fault.KindPlacement, PE: pe, Cycle: at,
			Detail: fmt.Sprintf("PE died mid-run but policy %T cannot re-place instructions", s.pol)}
	}
	if err := rc.MarkDefective(pe); err != nil {
		return &fault.FaultError{Kind: fault.KindPlacement, PE: pe, Cycle: at, Detail: err.Error()}
	}
	ps := &s.pes[pe]
	s.res.Faults.PEKills++
	s.tr.Event(at, trace.KindKill, pe, 0, 0)
	s.res.Faults.MigratedInstrs += uint64(ps.nres)
	// Only the dead PE's instructions lose their homes (the Reconfigurable
	// contract), so only its recency list has residency entries to clear.
	for ni := ps.lru.head; ni >= 0; ni = ps.lru.nodes[ni].next {
		s.resident[ps.lru.nodes[ni].gi] = -1
	}
	ps.nres = 0
	ps.lru.reset()
	ps.waiting = 0
	ps.free = 0
	// Forget the homes the policy just evicted; the survivors' stay cached
	// (the policy would only repeat them).
	for gi, home := range s.homes {
		if int(home) == pe {
			s.homes[gi] = -1
		}
	}
	for i := range s.destArena {
		s.destArena[i].home = -1
	}
	for i := range s.q.slab { // free records too: a push stamps home afresh
		s.q.slab[i].home = -1
	}
	// Record the death in the simulator's defect view (copy-on-write: the
	// caller's map must not be mutated) so diagnostics report it.
	d := make([]bool, s.cfg.Machine.NumPEs())
	copy(d, s.cfg.Machine.Defective)
	d[pe] = true
	s.cfg.Machine.Defective = d
	return nil
}

// diagnose renders the watchdog's dump: which PEs hold waiting tokens,
// how many operand tuples sit partially matched, which PEs are dead, and
// the ordering engine's unresolved wave chains.
func (s *sim) diagnose() string {
	var b strings.Builder
	fmt.Fprintf(&b, "watchdog report: %d events queued, %d instructions fired, t=%d\n",
		s.q.len(), s.res.Fired, s.maxT)
	stuck := 0
	for i := range s.pes {
		if s.pes[i].waiting > 0 {
			if stuck < 16 {
				fmt.Fprintf(&b, "  pe %d: %d waiting tokens, %d resident instructions\n",
					i, s.pes[i].waiting, s.pes[i].nres)
			}
			stuck++
		}
	}
	fmt.Fprintf(&b, "  %d PEs hold waiting tokens\n", stuck)
	partial := 0
	for i := range s.opstore {
		partial += s.opstore[i].Len()
		if s.slots[i].used() {
			partial++
		}
	}
	fmt.Fprintf(&b, "  %d partial operand tuples awaiting matches\n", partial)
	if n := fault.CountDefects(s.cfg.Machine.Defective); n > 0 {
		fmt.Fprintf(&b, "  %d defective PEs:", n)
		for i, dead := range s.cfg.Machine.Defective {
			if dead {
				fmt.Fprintf(&b, " %d", i)
			}
		}
		b.WriteString("\n")
	}
	b.WriteString("  wave-ordering state: ")
	b.WriteString(s.engine.DebugState())
	if s.cfg.MemMode == MemSpec {
		b.WriteString("\n  speculation state: ")
		b.WriteString(s.specDebugState())
	}
	return b.String()
}

// bufferCluster binds a dynamic wave to a store buffer by first touch: the
// cluster of the first PE to send one of the wave's memory messages owns
// the whole wave, matching the WaveCache's locality-seeking dynamic wave
// assignment. The binding lives as long as the wave: waveRetire deletes it
// when the wave's chain has issued, so the table holds the waves in flight
// and nothing else.
//
// A wave's memory messages arrive in runs, so the previous call's binding
// is kept in front of the table. It is always the cluster the table holds
// for that wave — a miss stores what it returns, MemSpec rewrites only the
// epoch bits, and waveRetire drops the shortcut with the table entry — so it
// cannot change an answer.
func (s *sim) bufferCluster(tag isa.Tag, requesterPE int) int {
	key := tagKey(tag)
	if s.lastWaveOK && s.lastWaveKey == key {
		return s.lastWaveBuf
	}
	b, ok := s.waveBuf.Get(key)
	if !ok {
		b = int64(s.loc(requesterPE).Cluster)
		if _, gone := s.retired[key]; gone {
			s.lateBinds++
		}
		s.work.Bound++
		s.waveBuf.Put(key, b)
	}
	buf := int(uint32(b)) // the cluster, without the epoch bits
	s.lastWaveOK, s.lastWaveKey, s.lastWaveBuf = true, key, buf
	return buf
}

// A binding, waveBuf's value, is the wave's store-buffer cluster in the low
// 32 bits and MemSpec's epoch state above them. The wave is the epoch (the
// Transactional WaveCache's implicit per-wave transaction), so its state is
// bound, read and retired with the binding and needs no table of its own.
const (
	epochOpened   int64 = 1 << 32 // a request of the wave has speculated
	epochSquashed int64 = 1 << 33 // a conflict squashed the wave's remaining speculations
)

// waveRetire is the ordering engine's wave-completion hook and its
// context-end hook (a context's last wave ends on its MemEnd without a wave
// completion): the wave's <pred, this, succ> chain has issued to its end, so
// no memory message of it is still to come and its binding goes — and with
// it the wave's MemSpec epoch, which commits here as the Transactional
// WaveCache's implicit transaction does.
func (s *sim) waveRetire(ctx, wave uint32) {
	key := tagKey(isa.Tag{Ctx: ctx, Wave: wave})
	if s.waveBuf.Delete(key) {
		s.work.Retired++
	}
	if s.lastWaveKey == key {
		s.lastWaveOK = false
	}
	if s.retired != nil {
		s.retired[key] = struct{}{}
	}
}

// submitMem routes a memory message from a PE to its wave's store buffer:
// a dedicated short path within the cluster, the mesh across clusters.
func (s *sim) submitMem(pe int, gi int32, in *isa.Instruction, tag isa.Tag, addr, val int64, childCtx uint32, t int64) error {
	buf := s.bufferCluster(tag, pe)
	arr, err := s.memHop(s.loc(pe), noc.Loc{Cluster: buf}, t, pe)
	if err != nil {
		return err
	}
	ci := s.ckSlab.Alloc()
	s.ckGen++
	*s.ckSlab.At(ci) = memCookie{gi: gi, tag: tag, fired: t, arrived: arr, buf: buf, gen: s.ckGen}
	req := s.allocReq()
	*req = waveorder.Request{
		Ctx: tag.Ctx, Wave: tag.Wave,
		Kind: in.Mem.Kind, Seq: in.Mem.Seq, Pred: in.Mem.Pred, Succ: in.Mem.Succ,
		Addr: addr, Value: val, ChildCtx: childCtx,
		Cookie: int64(ci),
	}
	s.pushMem(arr, req)
	return nil
}

// fire executes one instruction instance.
func (s *sim) fire(e *event) error {
	s.res.Fired++
	s.fuel--
	if s.fuel < 0 {
		return &fault.FaultError{Kind: fault.KindWatchdog, PE: -1, Cycle: e.time,
			Detail: "execution exceeded instruction budget\n" + s.diagnose()}
	}
	gi, tag, vals := e.gi, e.tag, e.vals
	di := &s.code[gi]
	pe := s.eventHome(e)
	s.pes[pe].fires++
	t := e.time
	if s.tr != nil {
		l := s.loc(pe)
		s.tr.Event(t, trace.KindFire, pe, int64(l.Cluster), int64(l.Domain))
	}

	switch di.op {
	case isa.OpNop:
		return s.send(pe, di.dests, tag, vals[0], t)
	case isa.OpConst:
		return s.send(pe, di.dests, tag, di.imm, t)
	case isa.OpSteer:
		if vals[0] != 0 {
			return s.send(pe, di.dests, tag, vals[1], t)
		}
		return s.send(pe, di.destsFalse, tag, vals[1], t)
	case isa.OpSelect:
		v := vals[2]
		if vals[0] != 0 {
			v = vals[1]
		}
		return s.send(pe, di.dests, tag, v, t)
	case isa.OpWaveAdvance:
		return s.send(pe, di.dests, tag.Advance(), vals[0], t)
	case isa.OpLoad:
		return s.submitMem(pe, gi, di.in, tag, vals[0], 0, 0, t)
	case isa.OpStore:
		if err := s.submitMem(pe, gi, di.in, tag, vals[0], vals[1], 0, t); err != nil {
			return err
		}
		return s.send(pe, di.dests, tag, vals[1], t)
	case isa.OpMemNop:
		if err := s.submitMem(pe, gi, di.in, tag, 0, 0, 0, t); err != nil {
			return err
		}
		return s.send(pe, di.dests, tag, vals[0], t)
	case isa.OpNewCtx:
		ctx := s.nextCtx
		s.nextCtx++
		mi := s.ctxSlab.Alloc()
		*s.ctxSlab.At(mi) = ctxInfo{callerTag: tag, retPad: di.target}
		s.ctxTab.Put(uint64(ctx), int64(mi))
		if di.in.Mem.Kind == isa.MemCall {
			if err := s.submitMem(pe, gi, di.in, tag, 0, 0, ctx, t); err != nil {
				return err
			}
		}
		return s.send(pe, di.dests, tag, int64(ctx), t)
	case isa.OpSendArg:
		dst := s.homePE(di.target)
		arr, err := s.sendOperand(pe, s.route(pe, dst), t)
		if err != nil {
			return err
		}
		s.pushToken(arr, di.target, int32(dst), 0, isa.Tag{Ctx: uint32(vals[0]), Wave: 0}, vals[1])
		return nil
	case isa.OpReturn:
		mv, ok := s.ctxTab.Get(uint64(tag.Ctx))
		if !ok {
			return fmt.Errorf("wavecache: return in unknown context %d", tag.Ctx)
		}
		meta := *s.ctxSlab.At(int32(mv))
		s.ctxTab.Delete(uint64(tag.Ctx))
		s.ctxSlab.Release(int32(mv))
		if di.in.Mem.Kind == isa.MemEnd {
			if err := s.submitMem(pe, gi, di.in, tag, 0, 0, 0, t); err != nil {
				return err
			}
		}
		if meta.retPad < 0 {
			s.done = true
			s.result = vals[0]
			return nil
		}
		dst := s.homePE(meta.retPad)
		arr, err := s.sendOperand(pe, s.route(pe, dst), t)
		if err != nil {
			return err
		}
		s.pushToken(arr, meta.retPad, int32(dst), 0, meta.callerTag, vals[0])
		return nil
	}
	if isa.IsALU(di.op) {
		return s.send(pe, di.dests, tag, isa.EvalALU(di.op, vals[0], vals[1]), t)
	}
	return fmt.Errorf("wavecache: cannot execute opcode %s", di.op)
}

// issueMem runs when the ordering engine releases a request in program
// order: the architectural half of a commit — read or write the memory
// image, route a load's reply — around the one call that asks the run's
// memory mode what the commit costs.
func (s *sim) issueMem(r *waveorder.Request) {
	ci := int32(r.Cookie)
	// The cookie is read in place in the slab: Release only recycles the
	// index and nothing below allocates a cookie, so the record is this
	// request's until issueMem returns. (A local copy handed to the mode by
	// pointer would move to the heap: one allocation per memory operation.)
	ck := s.ckSlab.At(ci)
	s.ckSlab.Release(ci)
	// Dead-stamp the cookie so any pending deferred-speculation probe for
	// this request sees it gone (generations start at 1).
	ck.gen = 0
	// The request is eligible now, its wave chain resolved; the ordering
	// stall is how long it sat buffered since it arrived. Every request,
	// ordering-only ones (nop, call, end) included, then takes the first
	// store-buffer issue slot at or after eligible, BufferWidth per cycle
	// per cluster, FIFO.
	eligible := s.now
	stall := eligible - ck.arrived
	s.orderStall += uint64(stall)
	if s.tr != nil {
		s.tr.Event(s.now, trace.KindMemIssue, -1, int64(r.Kind), stall)
	}
	granted := s.bufBusy[ck.buf].Grant(eligible, max(s.cfg.BufferWidth, 1))
	switch r.Kind {
	case isa.MemLoad:
		done := s.mode.commit(s, ck, r, granted)
		var v int64
		if r.Addr >= 0 && r.Addr < int64(len(s.memImage)) {
			v = s.memImage[r.Addr]
		}
		s.commit = FoldCommit(s.commit, false, r.Addr, v)
		for _, d := range s.code[ck.gi].dests {
			dstPE := s.homePE(d.gi)
			arr, err := s.memHop(noc.Loc{Cluster: ck.buf}, s.loc(dstPE), done, dstPE)
			if err != nil {
				// issueMem is a callback without an error path; park the
				// fault for the run loop to surface after Submit returns.
				if s.memErr == nil {
					s.memErr = err
				}
				return
			}
			s.pushToken(arr, d.gi, int32(dstPE), d.port, ck.tag, v)
		}
	case isa.MemStore:
		s.mode.commit(s, ck, r, granted)
		if r.Addr >= 0 && r.Addr < int64(len(s.memImage)) {
			s.memImage[r.Addr] = r.Value
		}
		s.commit = FoldCommit(s.commit, true, r.Addr, r.Value)
		s.commitStores = FoldCommit(s.commitStores, true, r.Addr, r.Value)
	}
}

// access is the one spelling of a cache access: request r's address, clamped
// into the memory image, through the L1 of the cluster its wave is bound to.
func (s *sim) access(ck *memCookie, r *waveorder.Request) mem.AccessResult {
	s.work.MemAccess++
	return s.memsys.Access(ck.buf, clampAddr(r.Addr, len(s.memImage)), r.Kind == isa.MemStore)
}

func clampAddr(a int64, n int) int64 {
	if a < 0 {
		return 0
	}
	if a >= int64(n) {
		return int64(n - 1)
	}
	return a
}
