package wavecache

// Speculative transactional wave-ordered memory (MemSpec): the
// Transactional WaveCache's implicit-transaction protocol grafted onto
// the wave-ordered store buffers. A memory request that arrives at its
// store buffer behind unresolved wave-order predecessors does not keep
// idling — it accesses the cache hierarchy speculatively (stores
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
// unresolved predecessors, in which case a speculation probe is scheduled
// on the arrival cycle: the request speculates only if it is still waiting
// when the probe fires, after the events already queued for this cycle.
func (speculative) arrive(s *sim, r *waveorder.Request) error {
	gen := s.ckSlab.At(int32(r.Cookie)).gen
	if err := s.engine.Submit(r); err != nil {
		return err
	}
	if s.ckSlab.At(int32(r.Cookie)).gen == gen {
		// Probe now, not later: measured across the suite, any positive
		// delay forfeits more than it protects, because most of the win
		// on memory-bound kernels comes from stalls only a few cycles long.
		s.pushSpecProbe(r)
	}
	return nil
}

// specArrival speculates on a request buffered behind unresolved
// wave-order predecessors (its probe event just fired and found it still
// waiting): the access runs against the cache now, and the cookie records
// what the commit point must validate.
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
	// Speculative accesses ride idle store-buffer ports — they never take
	// an issue slot; issueMem grants the commit point its slot exactly like
	// in-order issue, so a valid speculation's reply, max(slot, early done),
	// is never later than the in-order reply would have been.
	if r.Kind == isa.MemLoad {
		ck.specSnap = sp.commitSeq
		if pv, ok := sp.fwdTab.Get(key); ok {
			// An in-flight speculative store covers this address: forward
			// from the versioned store buffer at L1-hit latency, no cache
			// traffic. Valid iff that store is still the last committer
			// when the load commits.
			ck.spec = specFwd
			ck.specUID = uint32(uint64(pv) >> 32)
			ck.done = s.now + s.cfg.Mem.L1Latency
			sp.st.Forwards++
			s.tr.Event(s.now, trace.KindSpecIssue, -1, 1, s.cfg.Mem.L1Latency)
		} else {
			ar := s.access(ck, r)
			ck.spec = specLoad
			ck.done = s.now + ar.Latency
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
		ar := s.access(ck, r)
		ck.spec = specStore
		ck.specUID = uid
		ck.specSnap = uint32(vi) // stores reuse the snapshot slot as the vsb index
		ck.done = s.now + ar.Latency
		sp.st.SpecCycles += ar.Latency
		s.tr.Event(s.now, trace.KindSpecIssue, -1, 0, ar.Latency)
	}
}

// commit is MemSpec's commit point. A request that never speculated is
// charged exactly as under waveOrdered. A speculated request that must
// replay (specSettle) re-executes here, in order, charging the replayed
// access. Otherwise a speculated load is done at its early done, raised to
// its slot and then to the reply grid (MemSpec does not back-date), and a
// speculated store at its slot, its access drained early. A store advances
// the committed-store sequence later loads validate against (uid 0 for one
// that never speculated); the caller writes the memory image.
func (m speculative) commit(s *sim, ck *memCookie, r *waveorder.Request, granted int64) int64 {
	sp := &s.spec
	done := granted
	if ck.spec == specNone {
		done = m.waveOrdered.commit(s, ck, r, granted)
	} else if s.specSettle(ck, r) {
		sp.st.ReplayedOps++
		ar := s.access(ck, r)
		sp.st.ReplayCycles += ar.Latency
		s.tr.Event(s.now, trace.KindSpecReplay, -1, ar.Latency, 0)
		done = granted + ar.Latency
	} else if ck.spec != specStore {
		done = max(ck.done, granted)
		if odd := done % specReplyAlign; odd != 1 {
			done += 1 - odd // round up to the reply grid (next odd cycle)
		}
	}
	if r.Kind == isa.MemStore {
		sp.commitSeq++
		sp.lastStore.Put(uint64(r.Addr), int64(uint64(sp.commitSeq)<<32|uint64(ck.specUID)))
	}
	return done
}

// specSettle closes a speculated request's speculation at its commit point
// and reports whether it must replay: whether its epoch is squashed. A
// store retires its versioned-store-buffer entry. A load is validated: no
// store may have committed to its address after its snapshot, and a
// forwarded load's forwarding store must still be the last committer.
func (s *sim) specSettle(ck *memCookie, r *waveorder.Request) (replay bool) {
	sp := &s.spec
	wk := tagKey(ck.tag)
	b, _ := s.waveBuf.Get(wk)
	if ck.spec == specStore {
		key, vi := uint64(r.Addr), int32(ck.specSnap)
		sp.vsb.At(vi).used = false
		if pv, ok := sp.fwdTab.Get(key); ok && uint32(uint64(pv)>>32) == ck.specUID {
			sp.fwdTab.Delete(key)
		}
		sp.vsb.Release(vi)
		return b&epochSquashed != 0
	}
	if b&epochSquashed != 0 {
		return true
	}
	lv, okLast := sp.lastStore.Get(uint64(r.Addr))
	if ck.spec == specFwd {
		if okLast && uint32(uint64(lv)) == ck.specUID {
			return false
		}
	} else if !okLast || uint32(uint64(lv)>>32) <= ck.specSnap {
		return false
	}
	// The first conflict squashes the wave's epoch: the loads of a squashed
	// wave replay without validating, so it squashes once. Ops that already
	// committed out of it were individually validated, so only its
	// still-speculative remainder replays, each at its own commit point.
	sp.st.Conflicts++
	sp.st.Squashes++
	s.waveBuf.Put(wk, b|epochSquashed)
	s.tr.Event(s.now, trace.KindSpecConflict, -1, int64(r.Kind), 0)
	s.tr.Event(s.now, trace.KindSpecSquash, -1, int64(ck.tag.Ctx), int64(ck.tag.Wave))
	return true
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
