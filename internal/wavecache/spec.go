package wavecache

// Speculative transactional wave-ordered memory (MemSpec): the
// Transactional WaveCache's implicit-transaction protocol grafted onto
// the wave-ordered store buffers. A memory request that has sat buffered
// behind unresolved wave-order predecessors for specDelay cycles does not
// keep idling — it accesses the cache hierarchy speculatively (stores
// buffering their value in a versioned store buffer, loads forwarding
// from it when an in-flight speculative store covers their address), on
// spare store-buffer ports, riding bandwidth in-order issue would have
// left unused. Every request still COMMITS strictly in wave order through
// issueMem: at its commit point a speculation is validated against the
// conflict detector and, if it raced with an intervening committed store,
// the enclosing epoch — the request's wave, the Transactional WaveCache's
// implicit per-wave transaction, kept as two bits on the wave's store-buffer
// binding — is squashed: each of its still-speculative accesses re-executes
// at its own commit point, paying the cache again, so replayed work is
// charged honestly.
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

	"wavescalar/internal/isa"
	"wavescalar/internal/tagtable"
	"wavescalar/internal/trace"
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
	Epochs       uint64 // epochs opened: waves in which a request speculated
}

// Cookie speculation classes (memCookie.spec).
const (
	specNone  uint8 = iota
	specLoad        // load accessed the cache speculatively
	specFwd         // load forwarded from an in-flight speculative store
	specStore       // store buffered its value speculatively
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
	// Conflict detector: commitSeq numbers committed stores; lastStore
	// maps address -> packed (commitSeq<<32 | uid) of the last committed
	// store (uid 0 for stores that never speculated). A speculative load
	// is valid at commit iff no store committed to its address after its
	// snapshot — or, when it forwarded, iff the forwarding store is
	// exactly the last committer.
	commitSeq uint32
	lastStore tagtable.Table

	// Versioned store buffer: in-flight speculative stores, plus fwdTab
	// mapping address -> packed (uid<<32 | slab index) of the newest one,
	// the forwarding source for speculative loads.
	nextUID uint32
	vsb     tagtable.Slab[vsbEntry]
	fwdTab  tagtable.Table

	st SpecStats
}

func (sp *specState) reset() {
	sp.commitSeq = 0
	sp.lastStore.Reset()
	sp.nextUID = 0
	sp.vsb.Reset()
	sp.fwdTab.Reset()
	sp.st = SpecStats{}
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
	ck := s.ckSlab.At(int32(r.Cookie))
	// The wave's first speculation opens its epoch.
	wk := tagKey(ck.tag)
	if b, _ := s.waveBuf.Get(wk); b&epochOpened == 0 {
		s.waveBuf.Put(wk, b|epochOpened)
		sp.st.Epochs++
	}
	key := uint64(r.Addr)
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
			s.tr.Event(s.now, trace.KindSpecIssue, -1, 1, s.cfg.Mem.L1Latency)
		} else {
			ar := s.access(ck, r, false)
			ck.spec = specLoad
			ck.specDone = s.now + ar.Latency
			sp.st.SpecCycles += ar.Latency
			s.tr.Event(s.now, trace.KindSpecIssue, -1, 0, ar.Latency)
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
		s.tr.Event(s.now, trace.KindSpecIssue, -1, 0, ar.Latency)
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
	key := tagKey(ck.tag)
	b, _ := s.waveBuf.Get(key)
	valid := b&epochSquashed == 0
	if valid {
		lv, okLast := sp.lastStore.Get(uint64(r.Addr))
		if ck.spec == specFwd {
			valid = okLast && uint32(uint64(lv)) == ck.specUID
		} else if okLast {
			valid = uint32(uint64(lv)>>32) <= ck.specSnap
		}
		if !valid {
			// The first conflict squashes the wave's epoch: the loads of a
			// squashed wave replay without validating, so it squashes once.
			// Ops that already committed out of it were individually
			// validated, so only its still-speculative remainder replays,
			// each at its own commit point.
			sp.st.Conflicts++
			sp.st.Squashes++
			s.waveBuf.Put(key, b|epochSquashed)
			s.tr.Event(s.now, trace.KindSpecConflict, -1, int64(r.Kind), 0)
			s.tr.Event(s.now, trace.KindSpecSquash, -1, int64(ck.tag.Ctx), int64(ck.tag.Wave))
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
	s.tr.Event(s.now, trace.KindSpecReplay, -1, ar.Latency, 0)
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
		vi := int32(ck.specSnap)
		sp.vsb.At(vi).used = false
		if pv, ok := sp.fwdTab.Get(key); ok && uint32(uint64(pv)>>32) == uid {
			sp.fwdTab.Delete(key)
		}
		sp.vsb.Release(vi)
		if b, _ := s.waveBuf.Get(tagKey(ck.tag)); b&epochSquashed != 0 {
			sp.st.ReplayedOps++
			ar := s.access(ck, r, true)
			sp.st.ReplayCycles += ar.Latency
			s.tr.Event(s.now, trace.KindSpecReplay, -1, ar.Latency, 0)
		}
	} else {
		m.waveOrdered.commitStore(s, ck, r)
	}
	sp.commitSeq++
	sp.lastStore.Put(key, int64(uint64(sp.commitSeq)<<32|uint64(uid)))
}

// specDebugState renders the speculation subsystem for the watchdog
// diagnostic dump: the waves with an open epoch and how many of them are
// squashed, the versioned store buffer and the run's totals.
func (s *sim) specDebugState() string {
	sp := &s.spec
	open, squashed := 0, 0
	s.waveBuf.Range(func(_ uint64, b int64) bool {
		if b&epochOpened != 0 {
			open++
		}
		if b&epochSquashed != 0 {
			squashed++
		}
		return true
	})
	return fmt.Sprintf("%d epochs in flight (%d squashed), %d vsb entries; totals: %d speculated, %d conflicts, %d squashes, %d replayed",
		open, squashed, sp.vsb.Len(), sp.st.Issued, sp.st.Conflicts, sp.st.Squashes, sp.st.ReplayedOps)
}
