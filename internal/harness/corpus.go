package harness

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"wavescalar/internal/parallel"
	"wavescalar/internal/stats"
	"wavescalar/internal/testprogs"
)

// corpusCellVersion names the CorpusCell schema for cache keys; bump it
// when the cell's serialized shape or meaning changes.
const corpusCellVersion = "cell-v4"

// CorpusOptions configures a corpus-scale differential sweep (experiment
// E13): N generated programs, each verified across the full engine table.
type CorpusOptions struct {
	// N is the corpus size; Seed drives every generated program
	// (testprogs.CorpusSpecs(N, Seed) reproduces the exact corpus).
	N    int
	Seed int64
	// Shard/Shards select the 1-based shard k of n: this invocation
	// computes only cells with index ≡ k-1 (mod n). Zero values mean
	// "all cells". Distinct shard invocations sharing a cache directory
	// combine: aggregation always merges on read from the cache.
	Shard, Shards int
	// Cache, when non-nil, persists each completed cell to that
	// content-addressed store. The caller opens it — a handle indexes its
	// directory when opened and sees other processes' cells as of then —
	// and closes it; RunCorpus syncs it before returning.
	Cache *CellCache
	// Resume skips cells whose cached result validates; without it,
	// in-shard cells are recomputed (and re-Put) even when cached.
	Resume bool
	// Compile and Machine configure the per-cell pipeline; both are part
	// of every cell's cache key.
	Compile CompileOptions
	Machine MachineOptions
}

// CorpusCell is one program's differential verdict — the unit of caching,
// sharding, and resumption. Every field round-trips exactly through JSON
// (int64s decode into typed fields), which is what makes a merged sharded
// table byte-identical to a single-run table.
type CorpusCell struct {
	Spec    testprogs.CorpusSpec `json:"spec"`
	Want    int64                `json:"want"`
	Useful  int64                `json:"useful"`
	Engines []EngineResult       `json:"engines"`
	Pass    bool                 `json:"pass"`
}

// aipc returns the cell's architecture-neutral IPC on the wave-ordered
// WaveCache (the corpus performance metric), or NaN when unavailable.
func (c *CorpusCell) aipc() float64 {
	for _, r := range c.Engines {
		if r.Engine == "wavecache-wave-ordered" && r.Err == "" && r.Cycles > 0 {
			return AIPC(c.Useful, r.Cycles)
		}
	}
	return math.NaN()
}

// CorpusRun is the outcome of one RunCorpus invocation.
type CorpusRun struct {
	Table *stats.Table
	// Cells is index-addressed by corpus position; nil marks a cell this
	// invocation neither computed (out of shard) nor found in the cache.
	Cells []*CorpusCell
	// Computed/Cached/Missing partition the corpus for this invocation;
	// Mismatched counts cells where at least one engine disagreed.
	Computed, Cached, Missing, Mismatched int
	// CorruptEntries is the cache handle's Corrupt count after the sweep:
	// records found unusable since it was opened, each one recomputed.
	CorruptEntries int64
}

// corpusCellKey builds the content address of one cell: everything that
// determines its result — the program spec, compile options, machine
// configuration, the engine table and its version, and the cell schema.
func corpusCellKey(spec testprogs.CorpusSpec, o CorpusOptions) string {
	return CacheKey("corpus-cell", corpusCellVersion, EngineSetVersion,
		spec.Name(), o.Compile.Key(), o.Machine.Key())
}

// computeCorpusCell generates, compiles, and differentially verifies one
// spec. Failures land inside the cell (a pseudo-engine entry for compile
// errors), never as a sweep-fatal error: a corpus run must report bad
// cells, not die on the first one.
func computeCorpusCell(spec testprogs.CorpusSpec, o CorpusOptions, engines []Engine) *CorpusCell {
	cell := &CorpusCell{Spec: spec}
	src, err := testprogs.GenerateSpec(spec)
	if err != nil {
		cell.Engines = []EngineResult{{Engine: "generate", Err: err.Error()}}
		return cell
	}
	c, err := CompileSource(spec.Name(), src, o.Compile)
	if err != nil {
		cell.Engines = []EngineResult{{Engine: "compile", Err: err.Error()}}
		return cell
	}
	cell.Want = c.Checksum
	cell.Useful = c.UsefulInstrs
	d := RunDifferential(c, engines)
	cell.Engines = d.Results
	cell.Pass = d.Pass()
	return cell
}

// RunCorpus runs experiment E13: a seeded corpus of generated workload
// families, each program executed across all seven engines, aggregated
// into a per-family pass-rate and AIPC-distribution table. With Cache
// set the sweep is resumable and shardable; the table is byte-identical
// whether the corpus ran in one invocation, across shards, at any worker
// count, or was merged on read from the cache.
func RunCorpus(o CorpusOptions) (*CorpusRun, error) {
	if o.N <= 0 {
		return nil, fmt.Errorf("harness: corpus size must be positive, got %d", o.N)
	}
	if o.Shards > 0 && (o.Shard < 1 || o.Shard > o.Shards) {
		return nil, fmt.Errorf("harness: shard %d/%d out of range", o.Shard, o.Shards)
	}
	// Checked here because a cell records its own failures: options no cell
	// can run under would otherwise come back as N mismatches.
	if err := cmp.Or(o.Compile.Validate(), o.Machine.Validate()); err != nil {
		return nil, err
	}
	cache := o.Cache
	inShard := func(i int) bool {
		return o.Shards <= 0 || i%o.Shards == o.Shard-1
	}

	specs := testprogs.CorpusSpecs(o.N, o.Seed)
	engines := Engines(o.Machine)
	run := &CorpusRun{Cells: make([]*CorpusCell, o.N)}
	const (
		computed = iota
		cached
		missing
	)
	status := make([]int, o.N)
	err := parallel.ForEachCtx(o.Machine.ctx(), o.Machine.Workers, o.N, func(i int) error {
		key := ""
		if cache != nil {
			key = corpusCellKey(specs[i], o)
			// Merge-on-read: out-of-shard cells only ever come from the
			// cache; in-shard cells reuse a valid cached result only
			// under -resume.
			if !inShard(i) || o.Resume {
				var cell CorpusCell
				if cache.Get(key, &cell) {
					run.Cells[i] = &cell
					status[i] = cached
					return nil
				}
			}
		}
		if !inShard(i) {
			status[i] = missing
			return nil
		}
		cell := computeCorpusCell(specs[i], o, engines)
		run.Cells[i] = cell
		status[i] = computed
		if cache != nil {
			// Never cache a cell cut short by cancellation: its engine
			// errors reflect when the caller gave up, not what the program
			// does, and a resumed sweep must recompute it. (Watchdog and
			// fault aborts ARE cached — they are deterministic outcomes.)
			if o.Machine.ctx().Err() != nil {
				return nil
			}
			return cache.Put(key, cell)
		}
		return nil
	})
	if cache != nil {
		// The sweep's cells become durable together, here, not one fsync
		// per cell — also when the sweep failed: what it stored is good.
		err = cmp.Or(err, cache.Sync())
	}
	if err != nil {
		return nil, err
	}
	for i, cell := range run.Cells {
		switch status[i] {
		case computed:
			run.Computed++
		case cached:
			run.Cached++
		case missing:
			run.Missing++
		}
		if cell != nil && !cell.Pass {
			run.Mismatched++
		}
	}
	if cache != nil {
		run.CorruptEntries = cache.Corrupt()
	}
	run.Table = corpusTable(o, run.Cells)
	return run, nil
}

// corpusTable aggregates cells into the E13 table: one row per family
// plus a totals row. It depends only on cell values and corpus shape —
// never on which invocation computed a cell or in what order — so shard
// merges and resumes render byte-identically.
func corpusTable(o CorpusOptions, cells []*CorpusCell) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("E13: generated-corpus differential verification (%d programs, corpus seed %d)", o.N, o.Seed),
		"family", "cells", "pass", "fail", "missing", "pass-rate",
		"aipc-min", "aipc-geo", "aipc-med", "aipc-max", "useful-geo")
	type agg struct {
		total, pass, fail, missing int
		aipcs, usefuls             []float64
	}
	byFamily := map[string]*agg{}
	fams := testprogs.Families()
	for _, f := range fams {
		byFamily[f] = &agg{}
	}
	addTo := func(a *agg, cell *CorpusCell) {
		a.total++
		switch {
		case cell == nil:
			a.missing++
		case cell.Pass:
			a.pass++
			if v := cell.aipc(); !math.IsNaN(v) {
				a.aipcs = append(a.aipcs, v)
			}
			if cell.Useful > 0 {
				a.usefuls = append(a.usefuls, float64(cell.Useful))
			}
		default:
			a.fail++
		}
	}
	specs := testprogs.CorpusSpecs(o.N, o.Seed)
	total := &agg{}
	for i, cell := range cells {
		addTo(byFamily[specs[i].Family], cell)
		addTo(total, cell)
	}
	row := func(name string, a *agg) {
		rate := math.NaN()
		if judged := a.pass + a.fail; judged > 0 {
			rate = float64(a.pass) / float64(judged)
		}
		lo, median, hi := spread(a.aipcs)
		t.AddRow(name, a.total, a.pass, a.fail, a.missing, rate,
			lo, stats.GeoMean(a.aipcs), median, hi, stats.GeoMean(a.usefuls))
	}
	for _, f := range fams {
		row(f, byFamily[f])
	}
	row("all", total)
	t.Note = fmt.Sprintf("aipc = useful instrs / wave-ordered WaveCache cycles over passing cells; %d engines per cell (%s)",
		len(EngineNames(o.Machine)), EngineSetVersion)
	return t
}

// spread is the minimum, median and maximum of xs — NaN, like
// stats.GeoMean, for a family with no passing cell.
func spread(xs []float64) (lo, median, hi float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	// Odd n averages the middle element with itself, which is exact.
	return s[0], (s[(n-1)/2] + s[n/2]) / 2, s[n-1]
}

// DefaultCorpusMachine is the corpus sweep's machine: the tuned kernel
// configuration on a small grid (generated programs are tiny), with a
// watchdog bound so one pathological cell cannot hang a mega-sweep.
func DefaultCorpusMachine() MachineOptions {
	m := DefaultMachineOptions()
	m.GridW, m.GridH = 2, 2
	m.MaxCycles = 50_000_000
	return m
}
