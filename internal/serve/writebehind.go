package serve

import (
	"sync"

	"wavescalar/internal/harness"
)

// writeBehindDepth is how many accepted results may wait for the writer.
// A put is about a millisecond of file creation, fsync and rename, so this
// covers a quarter-second burst of completions; past it handlers write
// their own results (put's fallback) and the backlog stops growing.
const writeBehindDepth = 256

// resultStore is the write-behind front of the idempotency cache for
// /v1/simulate. put makes a result visible to get at once and durable
// later: one writer goroutine moves pending results into the CellCache, so
// the temp file, fsync and rename happen after the response instead of
// before it. That is safe because a result is a pure function of its key:
// what a crash loses from the queue, the retried request re-simulates to
// the byte-identical body. close flushes the queue and stops the writer.
type resultStore struct {
	cache *harness.CellCache
	logf  func(format string, args ...any)

	mu      sync.Mutex
	pending map[string]SimResult // accepted, not yet in cache
	closed  bool

	queue chan string   // keys of pending results, for the writer
	done  chan struct{} // closed when run returns
}

// newResultStore builds a store whose queue holds depth keys. The caller
// starts the writer with `go rs.run()` and ends it with rs.close().
func newResultStore(cache *harness.CellCache, depth int, logf func(string, ...any)) *resultStore {
	return &resultStore{
		cache:   cache,
		logf:    logf,
		pending: make(map[string]SimResult),
		queue:   make(chan string, depth),
		done:    make(chan struct{}),
	}
}

// get loads the result stored under key: a pending one first, so a replay
// that races the writer still hits, then the cache on disk.
func (rs *resultStore) get(key string, res *SimResult) bool {
	rs.mu.Lock()
	p, ok := rs.pending[key]
	rs.mu.Unlock()
	if ok {
		*res = p
		return true
	}
	return rs.cache.Get(key, res)
}

// put accepts a completed result. With room in the queue it returns at
// once and the writer makes the result durable; with the queue full, or
// after close, the caller writes it itself — backpressure, so nothing is
// dropped and pending never outgrows the queue plus the running handlers.
func (rs *resultStore) put(key string, res SimResult) {
	rs.mu.Lock()
	rs.pending[key] = res
	queued := false
	if !rs.closed {
		select {
		case rs.queue <- key:
			queued = true
		default:
		}
	}
	rs.mu.Unlock()
	if !queued {
		rs.flush(key)
	}
}

// flush writes key's pending result to the cache. Two requests that
// computed the same key queue it twice; the second flush finds nothing.
func (rs *resultStore) flush(key string) {
	rs.mu.Lock()
	res, ok := rs.pending[key]
	rs.mu.Unlock()
	if !ok {
		return
	}
	if err := rs.cache.Put(key, res); err != nil {
		rs.logf("simulate: idempotency cache put: %v", err)
	}
	// Only now: until the entry is on disk, get must find it here.
	rs.mu.Lock()
	delete(rs.pending, key)
	rs.mu.Unlock()
}

// run is the writer: it flushes queued keys until close.
func (rs *resultStore) run() {
	defer close(rs.done)
	for key := range rs.queue {
		rs.flush(key)
	}
}

// close makes every accepted result durable and stops the writer; it
// returns once run has exited. Later puts write synchronously. Idempotent.
func (rs *resultStore) close() {
	rs.mu.Lock()
	if !rs.closed {
		rs.closed = true
		close(rs.queue) // put sends only under mu with closed unset
	}
	rs.mu.Unlock()
	<-rs.done
}
