package serve

import (
	"container/list"
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"wavescalar/internal/harness"
)

// compileCache is the warm compiled-program cache: an LRU keyed by the
// program hash (compileKey: source + unroll factor + optimization level)
// and the dataflow binaries the entry was built with — all three, or the
// one a simulate request named — with singleflight semantics: N concurrent
// requests for the same uncompiled program trigger one compile, and the
// rest wait on it. Entries may be evicted while still being waited on;
// waiters hold the entry pointer, so eviction only forgets the key, never
// invalidates a result in use.
type compileCache struct {
	max  int
	hits atomic.Uint64

	mu      sync.Mutex
	entries map[string]*compileEntry
	lru     *list.List
}

type compileEntry struct {
	key  string
	elem *list.Element
	done chan struct{} // closed when c/err are set
	c    *harness.Compiled
	err  error
}

// buildPanic is the error get returns when build panicked: a bug in the
// compiler, not in the program handed to it, so the handlers report it as
// CodeInternal where any other build error is the request's fault.
type buildPanic struct {
	value any
	stack []byte // of the build goroutine, for the server log
}

func (p *buildPanic) Error() string { return fmt.Sprintf("compiler panic: %v", p.value) }

func newCompileCache(max int) *compileCache {
	if max < 1 {
		max = 1
	}
	return &compileCache{
		max:     max,
		entries: make(map[string]*compileEntry),
		lru:     list.New(),
	}
}

// get returns the program compiled under key with the named dataflow binary
// in it (binary "" = all of them), building it at most once per cache
// residency. An all-binaries entry is looked for first and serves any
// request, so a compile followed by simulations of the program compiles
// once; otherwise the entry for exactly this binary is used or built. hit
// reports whether a warm entry (including one still compiling under another
// request) satisfied the call.
//
// The wait — not the build — respects ctx: compilation executes the
// program on two reference engines and cannot be interrupted mid-way, so
// a cancelled request abandons the wait immediately while the build runs
// on in the background and lands in the cache. A retry after a deadline
// expiry therefore finds the program warm instead of paying the compile
// again — cancelled compile work is never wasted work.
func (cc *compileCache) get(ctx context.Context, key, binary string, build func() (*harness.Compiled, error)) (c *harness.Compiled, hit bool, err error) {
	cc.mu.Lock()
	e, ok := cc.entries[key]
	if !ok && binary != "" {
		key += "/" + binary
		e, ok = cc.entries[key]
	}
	if ok {
		cc.lru.MoveToFront(e.elem)
	} else {
		e = &compileEntry{key: key, done: make(chan struct{})}
		e.elem = cc.lru.PushFront(e)
		cc.entries[key] = e
		for cc.lru.Len() > cc.max {
			oldest := cc.lru.Back()
			old := oldest.Value.(*compileEntry)
			cc.lru.Remove(oldest)
			delete(cc.entries, old.key)
		}
		go func() {
			// Whatever build does, the waiters are released: net/http
			// recovers handler goroutines only, so a panic escaping this
			// one would take the process down, and one swallowed without
			// closing done would leave them waiting out their deadlines on
			// a key nobody is building.
			defer func() {
				if r := recover(); r != nil {
					e.c, e.err = nil, &buildPanic{value: r, stack: debug.Stack()}
				}
				if e.err != nil {
					// Never cache failures: a bad source stays bad, but transient
					// failures must not poison the key — a retry recompiles.
					cc.mu.Lock()
					if cur, live := cc.entries[key]; live && cur == e {
						cc.lru.Remove(e.elem)
						delete(cc.entries, key)
					}
					cc.mu.Unlock()
				}
				close(e.done)
			}()
			e.c, e.err = build()
		}()
	}
	cc.mu.Unlock()

	select {
	case <-e.done:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	if e.err != nil {
		return nil, ok, e.err
	}
	if ok {
		cc.hits.Add(1)
	}
	return e.c, ok, nil
}

// Hits reports how many requests were satisfied by a warm entry.
func (cc *compileCache) Hits() uint64 { return cc.hits.Load() }

// Len reports the current entry count.
func (cc *compileCache) Len() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.lru.Len()
}
