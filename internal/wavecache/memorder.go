package wavecache

import "wavescalar/internal/waveorder"

// memOrdering is a memory-ordering mode. All four modes commit every
// request through the same waveorder.Engine in program order — values never
// depend on the mode — and differ only in what a request does on reaching
// its store buffer and in what its commit costs: the cut the Transactional
// WaveCache draws when it layers speculation over the ordered store buffer.
// reset binds one per run; the event loop and issueMem call it
// without knowing which. What is not per memory operation — MemSpec's reset,
// its half of the retire hooks, its share of the watchdog dump — stays keyed
// on Config.MemMode in reset, waveRetire / ctxEnd and diagnose.
type memOrdering interface {
	// arrive hands a request that has just reached its store buffer to the
	// ordering engine.
	arrive(s *sim, r *waveorder.Request) error
	// commitLoad charges a load the engine has released and returns the
	// cycle its reply leaves the store buffer.
	commitLoad(s *sim, ck *memCookie, r *waveorder.Request) int64
	// commitStore charges a released store.
	commitStore(s *sim, ck *memCookie, r *waveorder.Request)
}

// waveOrdered is MemOrdered, the paper's wave-ordered memory: a request
// waits in the engine until its wave chain resolves, then takes an issue
// slot and accesses its cluster's L1. The other modes embed it for the
// steps they share.
type waveOrdered struct{}

func (waveOrdered) arrive(s *sim, r *waveorder.Request) error { return s.engine.Submit(r) }

func (waveOrdered) commitLoad(s *sim, ck *memCookie, r *waveorder.Request) int64 {
	start := s.bufIssueTime(ck.buf)
	return start + s.access(ck, r, false).Latency
}

func (waveOrdered) commitStore(s *sim, ck *memCookie, r *waveorder.Request) {
	s.bufIssueTime(ck.buf)
	s.access(ck, r, true)
}

// ideal is MemIdeal's oracle ordering: a load is timed as if its request
// had issued the moment it fired at its PE (which the clock may already
// have passed — the reply is back-dated). It still takes its issue slot.
type ideal struct{ waveOrdered }

func (ideal) commitLoad(s *sim, ck *memCookie, r *waveorder.Request) int64 {
	s.bufIssueTime(ck.buf)
	return ck.fireAt + s.access(ck, r, false).Latency
}

// serialized is MemSerial: one memory operation in flight at a time. end is
// when the next may start: the completion of the operation in flight plus
// the dependence-token round trip through the cluster interconnect, without
// which the successor's request cannot even be formed.
type serialized struct {
	waveOrdered
	end int64
}

func (m *serialized) commitLoad(s *sim, ck *memCookie, r *waveorder.Request) int64 {
	return m.issue(s, ck, r, false)
}

func (m *serialized) commitStore(s *sim, ck *memCookie, r *waveorder.Request) {
	m.issue(s, ck, r, true)
}

// issue times one access behind the operation in flight and returns its
// completion.
func (m *serialized) issue(s *sim, ck *memCookie, r *waveorder.Request, write bool) int64 {
	start := max(s.bufIssueTime(ck.buf), m.end)
	done := start + s.access(ck, r, write).Latency
	m.end = done + 2*s.cfg.Net.IntraCluster
	return done
}
