package wavecache

// Speculative transactional wave-ordered memory (MemSpec): the
// Transactional WaveCache's implicit-transaction protocol grafted onto
// the wave-ordered store buffers. A memory request that has sat buffered
// behind unresolved wave-order predecessors for specDelay cycles does not
// keep idling — it accesses the cache hierarchy speculatively (stores
// buffering their value in a versioned store buffer, loads forwarding
// from it when an in-flight speculative store covers their address), on
// spare store-buffer ports, riding bandwidth in-order issue would have
// left unused. Every request
// still COMMITS strictly in wave order through issueMem: at its commit
// point a speculation is validated against the conflict detector and, if
// it raced with an intervening committed store, the enclosing epoch (a
// group of Config.SpecScope waves) is squashed — each of its still-
// speculative accesses re-executes at its own commit point, paying the
// cache again, so replayed work is charged honestly.
//
// Architectural values never come from speculation: loads read the
// committed memory image and stores write it at commit, exactly like
// MemOrdered, so results are bit-identical across all four memory modes
// and the checksum verifies by construction. Speculation moves timing
// only. Squash decisions derive purely from committed-store sequence
// numbers — simulated state, never host scheduling — so results are
// invariant to -j. DESIGN.md §12 documents the protocol.

import (
	"fmt"
	"strings"

	"wavescalar/internal/isa"
	"wavescalar/internal/tagtable"
	"wavescalar/internal/waveorder"
)

// SpecStats counts MemSpec speculation activity (zero in other modes).
type SpecStats struct {
	Issued       uint64 // requests issued speculatively past unresolved predecessors
	Forwards     uint64 // loads forwarded from the versioned store buffer
	Conflicts    uint64 // commit-time validation failures
	Squashes     uint64 // epochs squashed (first conflict each)
	ReplayedOps  uint64 // accesses re-executed at their commit point
	SpecCycles   int64  // cache latency of speculative accesses
	ReplayCycles int64  // cache latency charged again by replays
	Epochs       uint64 // epochs opened
	Fallbacks    uint64 // epochs opened in-order by the thrash fallback
	Filtered     uint64 // loads kept in-order by the conflict predictor
}

// Cookie speculation classes (memCookie.spec).
const (
	specNone  uint8 = iota
	specLoad        // load accessed the cache speculatively
	specFwd         // load forwarded from an in-flight speculative store
	specStore       // store buffered its value speculatively
)

// Thrash fallback: after specThrashStreak consecutive speculative epochs
// squash, the next specProbeEpochs epoch groups issue in order (no
// speculation, so no wasted work), then speculation re-probes. This is
// what keeps serialization-bound kernels from regressing below plain
// wave-ordered issue.
const (
	specThrashStreak = 2
	specProbeEpochs  = 8
)

// Deferred speculation: a buffered request speculates via a probe event
// scheduled specDelay cycles after it arrives, and only if it is still
// waiting when the probe fires — requests whose predecessor chain
// resolves within the delay never touch the cache speculatively. Zero
// probes on the arrival cycle itself (a request that issues
// synchronously kills its probe before it fires). Measured across the
// suite, any positive delay forfeits more than it protects: the bulk of
// the win on memory-bound kernels comes from compressing stalls only a
// few cycles long, which a delay filters out first.
const specDelay = 0

// Speculative replies leave the store buffer on a two-cycle grid: a
// valid speculation's reply cycle rounds up to the next odd cycle.
// Unaligned early replies inject fine-grained jitter into cluster port
// arbitration and PE firing order, and on conflict-heavy kernels (art)
// that jitter random-walks the critical path below plain wave-ordered
// issue even though every per-op reply is no later than its in-order
// time. Aligning replies to a fixed grid bounds the jitter — measured
// results are identical for either grid phase, so this is rate
// limiting, not a tuned phase — at the cost of half a cycle of the
// hidden hit latency on average. With it, speculative cycle counts are
// at or below wave-ordered on every kernel in the suite.
const specReplyAlign = 2

// Conflict predictor: a static load whose speculation was invalidated
// recently (within specConfDecay committed stores) is likely to conflict
// again on its next dynamic instance — array sweeps conflict at a fresh
// address every iteration but through the same instruction — and a
// conflicting load squashes its whole epoch, replaying every innocent
// speculation in it. Such loads issue in order instead: the store-wait
// bits of conventional memory-dependence predictors, keyed by static
// instruction. Decay lets a cooled-down load re-probe.
const specConfDecay = 1 << 20

// specEpoch is one transaction scope: Config.SpecScope consecutive waves
// of one context. It retires when its last wave completes (or its context
// ends), which is also when the thrash detector samples it.
type specEpoch struct {
	key         uint64 // packed (ctx, wave/scope)
	ctx         uint32
	speculative bool // false while the thrash fallback is active
	squashed    bool // first conflict seen; remaining speculations replay
	pending     int  // speculated ops not yet committed
}

// vsbEntry is one versioned-store-buffer record: a speculative store's
// value held until its wave-order commit point.
type vsbEntry struct {
	addr int64
	val  int64
	uid  uint32
	used bool
}

// specState is the per-run speculation subsystem.
type specState struct {
	scope int // waves per epoch (>= 1)

	// Conflict detector: commitSeq numbers committed stores; lastStore
	// maps address -> packed (commitSeq<<32 | uid) of the last committed
	// store (uid 0 for stores that never speculated). A speculative load
	// is valid at commit iff no store committed to its address after its
	// snapshot — or, when it forwarded, iff the forwarding store is
	// exactly the last committer.
	commitSeq uint32
	lastStore tagtable.Table

	// Conflict predictor: static load (global instruction index) -> commitSeq of
	// its last validation failure. Loads that conflicted within
	// specConfDecay committed stores do not speculate.
	confTab tagtable.Table

	// Versioned store buffer: in-flight speculative stores, plus fwdTab
	// mapping address -> packed (uid<<32 | slab index) of the newest one,
	// the forwarding source for speculative loads.
	nextUID uint32
	vsb     tagtable.Slab[vsbEntry]
	fwdTab  tagtable.Table

	// Epoch table: key -> index into the epochs arena; active lists live
	// indices in creation order (deterministic iteration for the
	// context-end retire scan and the watchdog dump).
	epochTab  tagtable.Table
	epochs    []specEpoch
	epochFree []int32
	active    []int32

	// Thrash fallback state.
	streak  int
	offLeft int

	st SpecStats
}

func (sp *specState) reset(scope int) {
	if scope < 1 {
		scope = 1
	}
	sp.scope = scope
	sp.commitSeq = 0
	sp.lastStore.Reset()
	sp.confTab.Reset()
	sp.nextUID = 0
	sp.vsb.Reset()
	sp.fwdTab.Reset()
	sp.epochTab.Reset()
	sp.epochs = sp.epochs[:0]
	sp.epochFree = sp.epochFree[:0]
	sp.active = sp.active[:0]
	sp.streak = 0
	sp.offLeft = 0
	sp.st = SpecStats{}
}

// specEpochFor finds or opens the epoch owning (ctx, wave).
func (s *sim) specEpochFor(ctx, wave uint32) int32 {
	sp := &s.spec
	key := uint64(ctx)<<32 | uint64(wave)/uint64(sp.scope)
	if iv, ok := sp.epochTab.Get(key); ok {
		return int32(iv)
	}
	var ei int32
	if n := len(sp.epochFree); n > 0 {
		ei = sp.epochFree[n-1]
		sp.epochFree = sp.epochFree[:n-1]
	} else {
		sp.epochs = append(sp.epochs, specEpoch{})
		ei = int32(len(sp.epochs) - 1)
	}
	ep := &sp.epochs[ei]
	*ep = specEpoch{key: key, ctx: ctx, speculative: sp.offLeft == 0}
	sp.st.Epochs++
	if !ep.speculative {
		sp.st.Fallbacks++
	}
	sp.epochTab.Put(key, int64(ei))
	sp.active = append(sp.active, ei)
	return ei
}

// speculative is MemSpec's memOrdering: wave-ordered commit with the
// speculation layer over it. A request that never speculated is charged
// exactly as under waveOrdered.
type speculative struct{ waveOrdered }

// arrive submits the request. It either issues synchronously inside Submit
// (its ordering chain was already resolved — issueMem zeroes the cookie's
// generation, and a slot reused since carries a newer one) or buffers behind
// unresolved predecessors, in which case a deferred-speculation probe is
// scheduled: the request speculates only if it is still waiting specDelay
// cycles from now.
func (speculative) arrive(s *sim, r *waveorder.Request) error {
	gen := s.ckSlab.At(int32(r.Cookie)).gen
	if err := s.engine.Submit(r); err != nil {
		return err
	}
	if s.ckSlab.At(int32(r.Cookie)).gen == gen {
		s.pushSpecProbe(s.now+specDelay, r)
	}
	return nil
}

// specArrival speculates on a request that has been buffered behind
// unresolved wave-order predecessors for specDelay cycles (its probe
// event just fired and found it still waiting): the access runs against
// the cache now, and the cookie records what the commit point must
// validate.
func (s *sim) specArrival(r *waveorder.Request) {
	if r.Kind != isa.MemLoad && r.Kind != isa.MemStore {
		return
	}
	sp := &s.spec
	ei := s.specEpochFor(r.Ctx, r.Wave)
	ep := &sp.epochs[ei]
	ck := s.ckSlab.At(int32(r.Cookie))
	ck.specEp = ei
	if !ep.speculative {
		return
	}
	key := uint64(r.Addr)
	if r.Kind == isa.MemLoad {
		if cs, ok := sp.confTab.Get(uint64(ck.gi)); ok && sp.commitSeq-uint32(cs) < specConfDecay {
			sp.st.Filtered++
			return
		}
	}
	ep.pending++
	sp.st.Issued++
	// Speculative accesses ride idle store-buffer ports — they never
	// consume a bufIssueTime slot; the commit point pays the slot exactly
	// like in-order issue does, so a valid speculation's reply,
	// max(commit slot, specDone), is never later than the in-order reply
	// would have been.
	if r.Kind == isa.MemLoad {
		ck.specSnap = sp.commitSeq
		if pv, ok := sp.fwdTab.Get(key); ok {
			// An in-flight speculative store covers this address: forward
			// from the versioned store buffer at L1-hit latency, no cache
			// traffic. Valid iff that store is still the last committer
			// when the load commits.
			ck.spec = specFwd
			ck.specUID = uint32(uint64(pv) >> 32)
			ck.specDone = s.now + s.cfg.Mem.L1Latency
			sp.st.Forwards++
			s.tr.SpecIssue(s.now, true, s.cfg.Mem.L1Latency)
		} else {
			ar := s.access(ck, r, false)
			ck.spec = specLoad
			ck.specDone = s.now + ar.Latency
			sp.st.SpecCycles += ar.Latency
			s.tr.SpecIssue(s.now, false, ar.Latency)
		}
	} else {
		sp.nextUID++
		uid := sp.nextUID
		vi := sp.vsb.Alloc()
		*sp.vsb.At(vi) = vsbEntry{addr: r.Addr, val: r.Value, uid: uid, used: true}
		sp.fwdTab.Put(key, int64(uint64(uid)<<32|uint64(uint32(vi))))
		// The speculative store drains its cache access (fetch-for-write,
		// coherence) early; its commit point pays only the issue slot.
		ar := s.access(ck, r, true)
		ck.spec = specStore
		ck.specUID = uid
		ck.specSnap = uint32(vi) // stores reuse the snapshot slot as the vsb index
		ck.specDone = s.now + ar.Latency
		sp.st.SpecCycles += ar.Latency
		s.tr.SpecIssue(s.now, false, ar.Latency)
	}
}

// commitLoad validates a speculated load at its wave-order commit point
// and returns the cycle its reply leaves the store buffer. A valid
// speculation completes at its speculative time (never earlier than now —
// MemSpec does not back-date); a conflicting or squashed one re-executes
// here, in order, charging the replayed access.
func (m speculative) commitLoad(s *sim, ck *memCookie, r *waveorder.Request) int64 {
	if ck.spec == specNone {
		return m.waveOrdered.commitLoad(s, ck, r)
	}
	sp := &s.spec
	ep := &sp.epochs[ck.specEp]
	ep.pending--
	valid := !ep.squashed
	if valid {
		lv, okLast := sp.lastStore.Get(uint64(r.Addr))
		if ck.spec == specFwd {
			valid = okLast && uint32(uint64(lv)) == ck.specUID
		} else if okLast {
			valid = uint32(uint64(lv)>>32) <= ck.specSnap
		}
		if !valid {
			sp.st.Conflicts++
			sp.confTab.Put(uint64(ck.gi), int64(sp.commitSeq))
			s.tr.SpecConflict(s.now, int(r.Kind))
			s.specSquash(ep)
		}
	}
	start := s.bufIssueTime(ck.buf)
	if valid {
		done := ck.specDone
		if done < start {
			done = start
		}
		if r := done % specReplyAlign; r != 1 {
			done += 1 - r // round up to the reply grid (next odd cycle)
		}
		return done
	}
	sp.st.ReplayedOps++
	ar := s.access(ck, r, false)
	sp.st.ReplayCycles += ar.Latency
	s.tr.SpecReplay(s.now, ar.Latency)
	return start + ar.Latency
}

// commitStore commits a store in MemSpec mode: a speculated store retires
// its versioned-store-buffer entry (replaying its access first if the epoch
// squashed); a store that issued synchronously performs its ordinary
// in-order access. Either way the committed-store sequence advances, which
// is what later loads validate against. The caller writes the memory image.
func (m speculative) commitStore(s *sim, ck *memCookie, r *waveorder.Request) {
	sp := &s.spec
	key := uint64(r.Addr)
	var uid uint32
	if ck.spec == specStore {
		s.bufIssueTime(ck.buf)
		uid = ck.specUID
		ep := &sp.epochs[ck.specEp]
		ep.pending--
		vi := int32(ck.specSnap)
		sp.vsb.At(vi).used = false
		if pv, ok := sp.fwdTab.Get(key); ok && uint32(uint64(pv)>>32) == uid {
			sp.fwdTab.Delete(key)
		}
		sp.vsb.Release(vi)
		if ep.squashed {
			sp.st.ReplayedOps++
			ar := s.access(ck, r, true)
			sp.st.ReplayCycles += ar.Latency
			s.tr.SpecReplay(s.now, ar.Latency)
		}
	} else {
		m.waveOrdered.commitStore(s, ck, r)
	}
	sp.commitSeq++
	sp.lastStore.Put(key, int64(uint64(sp.commitSeq)<<32|uint64(uid)))
}

// specSquash marks an epoch squashed at its first conflict. Ops that
// already committed out of it were individually validated, so only the
// still-speculative remainder replays — each at its own commit point.
func (s *sim) specSquash(ep *specEpoch) {
	if ep.squashed {
		return
	}
	ep.squashed = true
	s.spec.st.Squashes++
	s.tr.SpecSquash(s.now, ep.ctx, uint32(ep.key))
}

// specWaveRetire is the ordering engine's wave-completion hook: when a
// wave group fills its scope, its epoch retires and the thrash detector
// samples the outcome.
func (s *sim) specWaveRetire(ctx, wave uint32) {
	sp := &s.spec
	if (uint64(wave)+1)%uint64(sp.scope) != 0 {
		return
	}
	if sp.offLeft > 0 {
		sp.offLeft--
	}
	key := uint64(ctx)<<32 | uint64(wave)/uint64(sp.scope)
	if iv, ok := sp.epochTab.Get(key); ok {
		s.specRetire(int32(iv))
	}
}

// specCtxEnd retires whatever epochs a finished context still has open
// (its last wave group may not have filled the scope).
func (s *sim) specCtxEnd(ctx uint32) {
	sp := &s.spec
	for i := 0; i < len(sp.active); {
		ei := sp.active[i]
		if sp.epochs[ei].ctx == ctx {
			s.specRetire(ei) // removes active[i]; the next entry slides in
			continue
		}
		i++
	}
}

func (s *sim) specRetire(ei int32) {
	sp := &s.spec
	ep := &sp.epochs[ei]
	if ep.speculative {
		if ep.squashed {
			sp.streak++
			if sp.streak >= specThrashStreak {
				sp.offLeft = specProbeEpochs
				sp.streak = 0
			}
		} else {
			sp.streak = 0
		}
	}
	sp.epochTab.Delete(ep.key)
	for i, a := range sp.active {
		if a == ei {
			sp.active = append(sp.active[:i], sp.active[i+1:]...)
			break
		}
	}
	sp.epochFree = append(sp.epochFree, ei)
}

// specDebugState renders the speculation subsystem for the watchdog
// diagnostic dump: in-flight epochs with their mode, squash state and
// uncommitted speculations, plus the thrash-fallback state. Deterministic: the
// active list is in epoch creation order.
func (s *sim) specDebugState() string {
	sp := &s.spec
	var b strings.Builder
	fmt.Fprintf(&b, "%d epochs in flight, %d vsb entries, squash streak %d, in-order probe %d",
		len(sp.active), sp.fwdTab.Len(), sp.streak, sp.offLeft)
	fmt.Fprintf(&b, "; totals: %d speculated, %d conflicts, %d squashes, %d replayed",
		sp.st.Issued, sp.st.Conflicts, sp.st.Squashes, sp.st.ReplayedOps)
	for _, ei := range sp.active {
		ep := &sp.epochs[ei]
		mode := "spec"
		if !ep.speculative {
			mode = "in-order"
		}
		state := "clean"
		if ep.squashed {
			state = "squash pending"
		}
		fmt.Fprintf(&b, "\n    epoch ctx %d group %d: %s, %s, %d speculations uncommitted",
			ep.ctx, uint32(ep.key), mode, state, ep.pending)
	}
	return b.String()
}
