package harness

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"testing"

	"wavescalar/internal/isa"
	"wavescalar/internal/linear"
	"wavescalar/internal/parallel"
	"wavescalar/internal/trace"
	"wavescalar/internal/wavecache"
	"wavescalar/internal/workloads"
)

// The fence fixture: the fence's programs, compiled once per test binary,
// and every cell a fence test asks for, simulated once by whichever test asks
// first and read by the others from the same memo.

// fencePrograms are the fence's program sets: the ten kernels, in
// workloads.Names order, and testprogs.CorpusSpecs(100, 1), at -O1 and as
// -O0 steer binaries.
type fencePrograms struct {
	kernels, corpus, o0, corpusO0 []*Compiled
}

var compileFence = sync.OnceValues(func() (*fencePrograms, error) {
	names := compileCorpus(100)
	n, k := len(names), len(workloads.Names())
	all, err := parallel.Map(0, 2*n, func(i int) (*Compiled, error) {
		opts := DefaultCompileOptions()
		if i >= n {
			i, opts.OptLevel, opts.Binaries = i-n, 0, []string{"steer"}
		}
		w := workloads.ByName(names[i])
		return CompileSource(w.Name, w.Src, opts)
	})
	if err != nil {
		return nil, err
	}
	// Full slice expressions: an append to one set must not write over the next.
	return &fencePrograms{all[:k:k], all[k:n:n], all[n : n+k : n+k], all[n+k:]}, nil
})

// fenceSets returns the fence's programs, compiled on first use. They are
// shared and read-only.
func fenceSets(t testing.TB) *fencePrograms {
	t.Helper()
	p, err := compileFence()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// quickSet returns lu and fft, the small, fast pair of the kernels, in a
// slice of the caller's own.
func quickSet(t testing.TB) []*Compiled {
	k, names := fenceSets(t).kernels, workloads.Names()
	return []*Compiled{k[slices.Index(names, "lu")], k[slices.Index(names, "fft")]}
}

// memo computes each key's value once, on first use, whichever goroutine
// asks first; the others wait for it.
type memo[K comparable, V any] struct{ m sync.Map }

func (m *memo[K, V]) get(k K, f func() (V, error)) (V, error) {
	once, _ := m.m.LoadOrStore(k, sync.OnceValues(f))
	return once.(func() (V, error))()
}

// emuTrace is the reference side of the commit-trace relation: the linear
// emulator executes in program order, so folding its loads and stores as
// they execute gives the digest a WaveCache run of the same optimized
// program must reproduce.
type emuTrace struct {
	commit, stores, image uint64
}

var emuTraces memo[*linear.Program, emuTrace]

// emulatorTrace returns p's trace, run on first use.
func emulatorTrace(p *linear.Program) (emuTrace, error) {
	return emuTraces.get(p, func() (emuTrace, error) {
		var tr emuTrace
		em := linear.NewEmulator(p, 0)
		em.Trace = func(ev linear.TraceEvent) {
			switch ev.Instr.Op {
			case linear.LLoad:
				tr.commit = wavecache.FoldCommit(tr.commit, false, ev.Addr, em.Memory()[ev.Addr])
			case linear.LStore: // traced after the write: the word holds the stored value
				v := em.Memory()[ev.Addr]
				tr.commit = wavecache.FoldCommit(tr.commit, true, ev.Addr, v)
				tr.stores = wavecache.FoldCommit(tr.stores, true, ev.Addr, v)
			}
		}
		if _, err := em.Run(); err != nil {
			return tr, err
		}
		tr.image = wavecache.ImageDigest(em.Memory())
		return tr, nil
	})
}

// cellKey names a cell: one binary on one machine (MachineOptions.Key).
type cellKey struct {
	prog    *isa.Program
	machine string
}

// cellRun is what a cell computed, beside its program's emulator trace.
type cellRun struct {
	res     wavecache.Result
	f       wavecache.Fence
	metrics uint64 // metricsDigest of the run's trace-metrics summary
	ref     emuTrace
}

var cellRuns memo[cellKey, cellRun]

// fenceRun returns what prog, one of c's binaries, computes on m, and the
// emulator's trace of c. The first call simulates it on a fresh arena and
// checks the value against c's checksum and the books: a token takes exactly one of deliver's paths, the
// access helper sees every access, and (from the change that retires
// bindings on) every binding made has retired by the end of the run — no
// memory message arrived for a wave after it retired.
func fenceRun(c *Compiled, prog *isa.Program, m MachineOptions) (cellRun, error) {
	return cellRuns.get(cellKey{prog, m.Key()}, func() (cellRun, error) {
		m.Metrics = trace.NewAggregate()
		cfg, pol, err := m.Build(prog)
		if err != nil {
			return cellRun{}, err
		}
		a := wavecache.NewArena()
		res, err := a.Run(prog, pol, cfg)
		if err != nil {
			return cellRun{}, err
		}
		if res.Value != c.Checksum {
			return cellRun{}, fmt.Errorf("checksum %d, want %d", res.Value, c.Checksum)
		}
		f := a.Fence()
		if w := f.Work; w.Bypassed+w.SlotMatched+w.TableMatched != res.Tokens || w.MemAccess != res.Mem.Accesses || w.Retired != 0 && w.Retired != w.Bound {
			return cellRun{}, fmt.Errorf("work counters do not add up: %+v against %d tokens, %d accesses", w, res.Tokens, res.Mem.Accesses)
		}
		ref, err := emulatorTrace(c.Linear)
		return cellRun{res, f, metricsDigest(m.Metrics), ref}, err
	})
}

// metricsDigest is the FNV-64a of the rendered trace-metrics summary: every
// row, the busiest cluster, domain and link, the queue depth, the ordering
// stall and the placements among them.
func metricsDigest(agg *trace.Aggregate) uint64 {
	h := fnv.New64a()
	h.Write([]byte(agg.Summary("").Render()))
	return h.Sum64()
}
