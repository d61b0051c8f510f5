package wavecache

import (
	"wavescalar/internal/isa"
	"wavescalar/internal/waveorder"
)

// memOrdering is a memory-ordering mode. All four modes commit every
// request through the same waveorder.Engine in program order — values never
// depend on the mode — and differ only in what a request does on reaching
// its store buffer and in what its commit costs: the cut the Transactional
// WaveCache draws when it layers speculation over the ordered store buffer.
// reset binds one per run; the event loop and issueMem call it
// without knowing which. MemSpec's share of the watchdog dump stays keyed on
// Config.MemMode in diagnose; its epochs retire with the wave bindings.
type memOrdering interface {
	// arrive hands a request that has just reached its store buffer to the
	// ordering engine.
	arrive(s *sim, r *waveorder.Request) error
	// commit charges a load or store the engine has released, which issueMem
	// has granted the store-buffer slot at cycle granted, and returns the
	// cycle it is done: a load's reply leaves the store buffer then.
	commit(s *sim, ck *memCookie, r *waveorder.Request, granted int64) (done int64)
}

// waveOrdered is MemOrdered, the paper's wave-ordered memory: a request
// waits in the engine until its wave chain resolves, then takes an issue
// slot and accesses its cluster's L1. The other modes embed it for the
// steps they share.
type waveOrdered struct{}

func (waveOrdered) arrive(s *sim, r *waveorder.Request) error { return s.engine.Submit(r) }

func (waveOrdered) commit(s *sim, ck *memCookie, r *waveorder.Request, granted int64) int64 {
	return granted + s.access(ck, r).Latency
}

// ideal is MemIdeal's oracle ordering: a load is timed as if its request
// had issued the moment it fired at its PE (which the clock may already
// have passed — the reply is back-dated). It still takes its issue slot.
type ideal struct{ waveOrdered }

func (m ideal) commit(s *sim, ck *memCookie, r *waveorder.Request, granted int64) int64 {
	if r.Kind == isa.MemStore {
		return m.waveOrdered.commit(s, ck, r, granted)
	}
	return ck.fired + s.access(ck, r).Latency
}

// serialized is MemSerial: one memory operation in flight at a time. end is
// when the next may start: the completion of the operation in flight plus
// the dependence-token round trip through the cluster interconnect, without
// which the successor's request cannot even be formed.
type serialized struct {
	waveOrdered
	end int64
}

func (m *serialized) commit(s *sim, ck *memCookie, r *waveorder.Request, granted int64) int64 {
	done := m.waveOrdered.commit(s, ck, r, max(granted, m.end))
	m.end = done + 2*s.cfg.Net.IntraCluster
	return done
}
