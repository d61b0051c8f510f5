package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"wavescalar/internal/harness"
	"wavescalar/internal/placement"
	"wavescalar/internal/profile"
	"wavescalar/internal/stats"
	"wavescalar/internal/trace"
	"wavescalar/internal/wavecache"
	"wavescalar/internal/workloads"
)

// simWorkload is sim-kernels and sim-memmodes: precompiled kernels run
// through harness.RunWave on the default 4x4 machine, sequential engine,
// one goroutine. A cell is one (kernel, memory mode) pair and one
// operation. The kernels generate their own data, so the seed only sets the
// order the cells run in. Modelled caches start empty in every cell.
type simWorkload struct {
	name    string
	kernels []string // nil = every named kernel
	modes   []wavecache.MemoryMode
	// productTrace adds two passes with the program's own metrics tracer
	// on to a traced run (trace.enabled_overhead_ratio).
	productTrace bool

	seed  int64
	m     harness.MachineOptions
	cells []simCell
	// results holds the latest Result of every cell; a later pass that
	// differs from it is a failed operation (the simulator is deterministic).
	results     map[string]wavecache.Result
	digestMatch bool // set by verify
}

type simCell struct {
	c    *harness.Compiled
	mode wavecache.MemoryMode
}

func (c simCell) key() string { return c.c.Name + "/" + c.mode.String() }

var memHeavyKernels = []string{"twolf", "equake", "art", "ammp", "gzip", "mcf"}

func newSimKernels() *simWorkload {
	return &simWorkload{name: "sim-kernels", modes: []wavecache.MemoryMode{wavecache.MemOrdered}, productTrace: true}
}

func newSimMemModes() *simWorkload {
	return &simWorkload{name: "sim-memmodes", kernels: memHeavyKernels,
		modes: []wavecache.MemoryMode{wavecache.MemSerial, wavecache.MemIdeal, wavecache.MemSpec}}
}

func (w *simWorkload) setup(seed int64, sz sizes) error {
	names := w.kernels
	if names == nil {
		names = workloads.Names()
	}
	if sz.tiny {
		names = []string{"mcf", "lu"}
	}
	opts := harness.DefaultCompileOptions()
	opts.Workers = sz.workers
	set, err := harness.Suite(names, opts)
	if err != nil {
		return err
	}
	w.seed = seed
	w.m = harness.DefaultMachineOptions()
	w.cells = w.cells[:0]
	for _, c := range set {
		for _, mode := range w.modes {
			w.cells = append(w.cells, simCell{c, mode})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(w.cells), func(i, j int) {
		w.cells[i], w.cells[j] = w.cells[j], w.cells[i]
	})
	w.results = map[string]wavecache.Result{}
	return nil
}

// timedPolicy is the timing decorator around the Policy handed to Run: it
// records each Assign call as a placement.busy span inside wavecache.run.
type timedPolicy struct {
	placement.Policy
	wt *workerTrace
	op int
}

func (p *timedPolicy) Assign(ref profile.InstrRef) int {
	s := p.wt.begin("placement.busy", p.op)
	pe := p.Policy.Assign(ref)
	p.wt.end(s)
	return pe
}

func (w *simWorkload) pass(rec *recorder) error {
	return w.runCells(rec, nil)
}

// runCells runs every cell once. agg, when non-nil, switches the program's
// own metrics tracer on.
func (w *simWorkload) runCells(rec *recorder, agg *trace.Aggregate) error {
	wt := rec.tr.worker(0)
	rec.expect(len(w.cells))
	for i, cell := range w.cells {
		t0 := rec.start(0)
		root := wt.begin("bench.op", i)
		s := wt.begin("placement.new", i)
		pol, err := w.m.NewPolicy(cell.c.Wave)
		wt.end(s)
		if err != nil {
			return err
		}
		if wt != nil {
			pol = &timedPolicy{Policy: pol, wt: wt, op: i}
		}
		cfg := w.m.WaveConfig()
		cfg.MemMode = cell.mode
		cfg.Metrics = agg
		s = wt.begin("wavecache.run", i)
		res, err := harness.RunWave(cell.c, cell.c.Wave, pol, cfg)
		wt.end(s)
		wt.end(root)
		if err == nil {
			if prev, ok := w.results[cell.key()]; ok && prev != res {
				err = fmt.Errorf("%s: result differs from the previous pass: %+v then %+v", cell.key(), prev, res)
			}
			w.results[cell.key()] = res
		}
		rec.done(i, 0, t0, err)
	}
	return nil
}

// verify compares every cell's simulated statistics with the golden file.
func (w *simWorkload) verify(rec *recorder) error {
	got := map[string]simDigest{}
	for k, r := range w.results {
		got[k] = simDigest{Value: r.Value, Cycles: r.Cycles, Fired: r.Fired, Tokens: r.Tokens}
	}
	var err error
	w.digestMatch, err = verifyGolden(rec, w.name, got)
	return err
}

func (w *simWorkload) layers(lc *layerContext) error {
	var fired, tokens, cycles, swaps, overflows float64
	var netMsgs, memAcc, l1Hit, l1Miss, memOps, squashes, replayed float64
	var aipc []float64
	modeFired, modeSeconds := map[wavecache.MemoryMode]float64{}, map[wavecache.MemoryMode]float64{}
	cellMS := opTimes(lc.untraced)
	for i, cell := range w.cells {
		r, ok := w.results[cell.key()]
		if !ok {
			continue // the cell failed; already counted
		}
		fired += float64(r.Fired)
		tokens += float64(r.Tokens)
		cycles += float64(r.Cycles)
		swaps += float64(r.Swaps)
		overflows += float64(r.Overflows)
		netMsgs += float64(r.Net.Messages)
		memAcc += float64(r.Mem.Accesses)
		l1Hit += float64(r.Mem.L1Hits)
		l1Miss += float64(r.Mem.L1Misses)
		memOps += float64(r.Order.Submitted)
		squashes += float64(r.Spec.Squashes)
		replayed += float64(r.Spec.ReplayedOps)
		modeFired[cell.mode] += float64(r.Fired)
		modeSeconds[cell.mode] += cellMS[i] / 1e3
		aipc = append(aipc, harness.AIPC(cell.c.UsefulInstrs, r.Cycles))
	}
	runS := lc.spanSeconds("wavecache.run")
	lc.set("wavecache.run_s", runS)
	lc.set("wavecache.ns_per_token", ratio(runS*1e9, tokens))
	lc.set("wavecache.fired", fired)
	lc.set("wavecache.tokens", tokens)
	lc.set("wavecache.cycles", cycles)
	lc.set("wavecache.swaps", swaps)
	lc.set("wavecache.overflows", overflows)
	lc.set("wavecache.mfired_per_s", ratio(fired/1e6, runS))
	for mode, f := range modeFired {
		lc.set("wavecache."+mode.String()+".mfired_per_s", ratio(f/1e6, modeSeconds[mode]))
	}
	sort.Float64s(aipc) // the seed shuffles the cells; the product must not depend on their order
	lc.set("wavecache.aipc_geomean", stats.GeoMean(aipc))
	lc.set("wavecache.spec.squashes", squashes)
	lc.set("wavecache.spec.replayed_ops", replayed)
	var mallocs, bytes []float64
	for _, p := range lc.untraced {
		mallocs = append(mallocs, float64(p.mallocs)/float64(len(w.cells)))
		bytes = append(bytes, float64(p.bytes)/float64(len(w.cells)))
	}
	lc.set("wavecache.allocs_per_run", median(mallocs))
	lc.set("wavecache.bytes_per_run", median(bytes))
	if w.digestMatch {
		lc.set("wavecache.stats_digest_match", 1)
	}

	lc.set("placement.new_s", lc.spanSeconds("placement.new"))
	lc.set("placement.busy_s", lc.spanSeconds("placement.busy"))
	lc.set("placement.assign_calls", lc.spanCount("placement.busy"))

	lc.set("noc.messages", netMsgs)
	lc.set("mem.accesses", memAcc)
	lc.set("mem.l1_miss_ratio", ratio(l1Miss, l1Hit+l1Miss))
	lc.set("waveorder.memops", memOps)
	micro := []struct {
		metric, share string
		count         float64
		run           func(int64, float64) (float64, error)
	}{
		{"noc.send_ns_per_op", "noc.est_share", netMsgs, microNoC},
		{"mem.access_ns_per_op", "mem.est_share", memAcc, microMem},
		{"waveorder.submit_ns_per_op", "waveorder.est_share", memOps, microWaveOrder},
		{"tagtable.put_get_delete_ns_per_op", "", tokens, microTagTable},
	}
	for _, mb := range micro {
		ns := math.Inf(1)
		for range 3 { // the fastest of three: a tight loop has no operation boundaries to probe at
			v, err := mb.run(w.seed, mb.count)
			if err != nil {
				return err
			}
			ns = min(ns, v)
		}
		lc.set(mb.metric, ns)
		if mb.share != "" {
			lc.set(mb.share, ratio(mb.count*ns/1e9, runS))
		}
	}

	if w.productTrace {
		before := w.results
		w.results = map[string]wavecache.Result{}
		var on []passStat
		for range 2 {
			ps, err := lc.measure(func(rec *recorder) error { return w.runCells(rec, trace.NewAggregate()) })
			if err != nil {
				return fmt.Errorf("pass with the program's tracer on: %w", err)
			}
			on = append(on, ps)
		}
		for k, r := range w.results {
			if before[k] != r {
				return fmt.Errorf("%s: result changes when the program's tracer is on", k)
			}
		}
		lc.set("trace.enabled_overhead_ratio", passSeconds(on)/passSeconds(lc.untraced))
	}
	return nil
}

func (w *simWorkload) close() {}
