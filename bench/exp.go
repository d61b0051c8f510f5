package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"time"

	"wavescalar/internal/harness"
	"wavescalar/internal/interp"
	"wavescalar/internal/trace"
)

// expWorkload is exp-suite: every entry of harness.Experiments on the
// reduced configuration the root benchmarks use (lu, fft, ammp on a 2x2
// grid) with min(2, nproc) workers. One experiment table is one operation;
// Experiment.Run verifies the checksum of every cell it simulates, and the
// rendered tables are byte-deterministic, so each table's SHA-256 is
// compared with the golden file. The seed sets the order of the experiments.
type expWorkload struct {
	set   []*harness.Compiled
	m     harness.MachineOptions
	order []int // indexes into harness.Experiments
	sums  map[string]string
	tiny  bool
	// digestMatch is set by verify.
	digestMatch bool
}

var expKernels = []string{"lu", "fft", "ammp"}

func (w *expWorkload) setup(seed int64, sz sizes) error {
	names := expKernels
	if sz.tiny {
		names = []string{"lu"}
	}
	opts := harness.DefaultCompileOptions()
	opts.Workers = sz.workers
	set, err := harness.Suite(names, opts)
	if err != nil {
		return err
	}
	w.set, w.tiny = set, sz.tiny
	w.m = harness.DefaultMachineOptions()
	w.m.GridW, w.m.GridH = 2, 2
	w.m.Workers = sz.workers
	w.order = rand.New(rand.NewSource(seed)).Perm(len(harness.Experiments))
	if sz.tiny {
		w.order = w.order[:3]
	}
	w.sums = map[string]string{}
	return nil
}

func (w *expWorkload) pass(rec *recorder) error {
	return w.runExperiments(rec, nil)
}

// runExperiments regenerates every table once. agg, when non-nil, switches
// the program's own metrics tracer on in every cell.
func (w *expWorkload) runExperiments(rec *recorder, agg *trace.Aggregate) error {
	wt := rec.tr.worker(0)
	m := w.m
	m.Metrics = agg
	rec.expect(len(w.order))
	for n, i := range w.order {
		e := harness.Experiments[i]
		t0 := rec.start(0)
		s := wt.begin("harness.exp."+e.ID, n)
		tbl, err := e.Run(w.set, m)
		wt.end(s)
		if err == nil {
			sum := fmt.Sprintf("%x", sha256.Sum256([]byte(tbl.Render())))
			if prev, ok := w.sums[e.ID]; ok && prev != sum {
				err = fmt.Errorf("%s: table differs from the previous pass", e.ID)
			}
			w.sums[e.ID] = sum
		}
		rec.done(n, 0, t0, err)
	}
	return nil
}

func (w *expWorkload) verify(rec *recorder) error {
	if w.tiny {
		return nil // the golden tables are those of the full kernel set
	}
	var err error
	w.digestMatch, err = verifyGolden(rec, "exp-suite", w.sums)
	return err
}

func (w *expWorkload) layers(lc *layerContext) error {
	var expS float64
	for _, e := range harness.Experiments {
		s := lc.spanSeconds("harness.exp." + e.ID)
		lc.set("harness.exp."+e.ID+"_s", s)
		expS += s
	}

	// One more pass with the program's own metrics tracer on: the only way
	// to count the WaveCache cells the experiments fan out, and the
	// suite-level cost of that tracer. The tables must not change
	// (runExperiments fails the operation if one does).
	agg := trace.NewAggregate()
	on, err := lc.measure(func(rec *recorder) error { return w.runExperiments(rec, agg) })
	if err != nil {
		return fmt.Errorf("pass with the program's tracer on: %w", err)
	}
	lc.set("trace.enabled_overhead_ratio", passSeconds([]passStat{on})/passSeconds(lc.untraced))
	snap := agg.Snapshot()
	lc.set("harness.cells_per_s", ratio(float64(snap.Runs), expS))
	lc.set("wavecache.fired", float64(snap.Fires))
	lc.set("wavecache.tokens", float64(snap.Tokens))
	lc.set("wavecache.cycles", float64(snap.Cycles))
	lc.set("wavecache.swaps", float64(snap.Swaps))
	lc.set("wavecache.overflows", float64(snap.Overflows))
	if w.digestMatch {
		lc.set("wavecache.stats_digest_match", 1)
	}

	// The two baselines E1 compares the WaveCache with, driven directly.
	var oooS, oooInstrs, interpS, interpFired float64
	for _, c := range w.set {
		t0 := time.Now()
		res, err := harness.RunOoO(c, harness.DefaultOoOConfig())
		if err != nil {
			return err
		}
		oooS += time.Since(t0).Seconds()
		oooInstrs += float64(res.Instrs)

		t0 = time.Now()
		im := interp.New(c.Wave, 0)
		v, err := im.Run()
		if err != nil {
			return err
		}
		if v != c.Checksum {
			return fmt.Errorf("%s: interp checksum %d != %d", c.Name, v, c.Checksum)
		}
		interpS += time.Since(t0).Seconds()
		interpFired += float64(im.Stats().Fired)
	}
	lc.set("ooo.run_s", oooS)
	lc.set("ooo.minstr_per_s", ratio(oooInstrs/1e6, oooS))
	lc.set("interp.run_s", interpS)
	lc.set("interp.mfired_per_s", ratio(interpFired/1e6, interpS))
	return nil
}

func (w *expWorkload) close() {}
