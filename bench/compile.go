package main

import (
	"fmt"
	"math/rand"
	"strings"

	"wavescalar/internal/cfgir"
	"wavescalar/internal/harness"
	"wavescalar/internal/isa"
	"wavescalar/internal/lang"
	"wavescalar/internal/linear"
	"wavescalar/internal/testprogs"
	"wavescalar/internal/wavec"
	"wavescalar/internal/workloads"
)

// compileWorkload is compile-corpus: a generated corpus (five families,
// round-robin) plus the ten kernels, each through harness.CompileSource at
// OptLevel 0 and 1, on one goroutine. One call is one operation: three
// dataflow binaries, the linear binary, and the two functional reference
// engines (linear.Emulator, lang.EvalProgram) whose checksums CompileSource
// itself compares — its error is the failure. The seed sets the order of
// the programs, not which programs: see corpusSeed.
type compileWorkload struct {
	ops []compileOp
	// shapes is what CompileSource returned for each operation on the
	// latest untraced pass; the staged pipeline of a traced pass must
	// reproduce it exactly.
	shapes []compileShape
	counts compileCounts // of the latest traced pass
}

type compileOp struct {
	name, src string
	opt       int
}

// compileShape is the observable output of one compilation.
type compileShape struct {
	steer, sel, rolled int // static instruction counts of the three binaries
	checksum, useful   int64
	memOpt             cfgir.MemOptStats
	chains             wavec.ChainStats
}

func shapeOf(c *harness.Compiled) compileShape {
	return compileShape{steer: c.Wave.NumInstrs(), sel: c.WaveSel.NumInstrs(), rolled: c.WaveNoUn.NumInstrs(),
		checksum: c.Checksum, useful: c.UsefulInstrs, memOpt: c.MemOpt, chains: c.Chains}
}

type compileCounts struct {
	srcLines, irInstrs, memOpsEliminated float64
	instrsOut, chainSlots, chainNops     float64
	emulated                             float64
}

// corpusPrograms is the number of generated programs; with the kernels and
// two optimizer tiers a pass is 1.5 s of one quiet core, so that a run has
// five passes or more and an operation counts at a median of as many.
//
// corpusSeed draws them, here and in serve-mix, the same for every --seed.
// A program of the "mixed" family costs anything from 0.1 ms to 240 ms to
// compile (standard deviation 35 ms; the other families 1-5 ms), so the
// total cost of a hundred or two programs drawn afresh moves by a tenth
// from seed to seed, as much as a regression bound is meant to resolve.
const (
	corpusPrograms = 100
	corpusSeed     = 1
)

func (*compileWorkload) allocating() {}

func (w *compileWorkload) setup(seed int64, sz sizes) error {
	n, kernels := corpusPrograms, workloads.Names()
	if sz.tiny {
		n, kernels = 10, []string{"lu"}
	}
	var progs []compileOp
	for _, spec := range testprogs.CorpusSpecs(n, corpusSeed) {
		src, err := testprogs.GenerateSpec(spec)
		if err != nil {
			return err
		}
		progs = append(progs, compileOp{name: spec.Name(), src: src})
	}
	for _, k := range kernels {
		progs = append(progs, compileOp{name: k, src: workloads.ByName(k).Src})
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(progs), func(i, j int) { progs[i], progs[j] = progs[j], progs[i] })
	w.ops = w.ops[:0]
	for _, p := range progs {
		for p.opt = 0; p.opt <= 1; p.opt++ {
			w.ops = append(w.ops, p)
		}
	}
	w.shapes = make([]compileShape, len(w.ops))
	w.counts = compileCounts{}
	return nil
}

func (w *compileWorkload) pass(rec *recorder) error {
	wt := rec.tr.worker(0)
	if wt != nil {
		w.counts = compileCounts{}
	}
	rec.expect(len(w.ops))
	for i, op := range w.ops {
		t0 := rec.start(0)
		var err error
		if wt == nil {
			var c *harness.Compiled
			c, err = harness.CompileSource(op.name, op.src, harness.CompileOptions{Unroll: unrollFactor, OptLevel: op.opt})
			if err == nil {
				w.shapes[i] = shapeOf(c)
			}
		} else {
			root := wt.begin("bench.op", i)
			var got compileShape
			got, err = w.staged(wt, i, op)
			wt.end(root)
			if err == nil && got != w.shapes[i] {
				err = fmt.Errorf("%s O%d: staged pipeline produced %+v, CompileSource %+v", op.name, op.opt, got, w.shapes[i])
			}
		}
		rec.done(i, 0, t0, err)
	}
	return nil
}

// unrollFactor is the harness pipeline's default.
var unrollFactor = harness.DefaultCompileOptions().Unroll

// staged runs the pipeline of harness.CompileSource stage by stage, with a
// span around every call into a layer. It must mirror CompileSource: four
// IR builds (steer, linear, select, rolled), three wavec compilations, one
// linear compilation, the emulator run and the AST evaluation.
func (w *compileWorkload) staged(wt *workerTrace, id int, op compileOp) (compileShape, error) {
	var sh compileShape
	buildIR := func(unroll int) (*cfgir.Program, cfgir.MemOptStats, error) {
		s := wt.begin("lang.parse", id)
		f, err := lang.ParseAndCheck(op.src)
		wt.end(s)
		if err != nil {
			return nil, cfgir.MemOptStats{}, err
		}
		if unroll > 1 {
			s = wt.begin("lang.unroll", id)
			lang.Unroll(f, unroll)
			wt.end(s)
		}
		s = wt.begin("cfgir.build", id)
		p, err := cfgir.Build(f)
		if err == nil {
			for _, fn := range p.Funcs {
				fn.Compact()
			}
		}
		wt.end(s)
		if err != nil {
			return nil, cfgir.MemOptStats{}, err
		}
		s = wt.begin("cfgir.optimize", id)
		p.Optimize()
		wt.end(s)
		var st cfgir.MemOptStats
		if op.opt >= 1 {
			s = wt.begin("cfgir.memopt", id)
			st = p.OptimizeMemory()
			wt.end(s)
		}
		return p, st, nil
	}
	build := func(unroll int, o wavec.Options) (*isa.Program, cfgir.MemOptStats, error) {
		p, st, err := buildIR(unroll)
		if err != nil {
			return nil, st, err
		}
		if unroll > 1 && !o.IfConvert { // the steer binary: count the IR wavec is handed
			for _, fn := range p.Funcs {
				for _, b := range fn.Blocks {
					w.counts.irInstrs += float64(len(b.Instrs))
				}
			}
		}
		s := wt.begin("wavec.compile", id)
		wp, err := wavec.Compile(p, o)
		wt.end(s)
		return wp, st, err
	}

	steer, st, err := build(unrollFactor, wavec.Options{})
	if err != nil {
		return sh, err
	}
	sh.memOpt = st
	s := wt.begin("wavec.compile", id)
	sh.chains = wavec.MeasureChains(steer)
	wt.end(s)

	p, _, err := buildIR(unrollFactor)
	if err != nil {
		return sh, err
	}
	s = wt.begin("linear.compile", id)
	lp, err := linear.Compile(p)
	wt.end(s)
	if err != nil {
		return sh, err
	}
	sel, _, err := build(unrollFactor, wavec.Options{IfConvert: true})
	if err != nil {
		return sh, err
	}
	rolled, _, err := build(1, wavec.Options{})
	if err != nil {
		return sh, err
	}

	s = wt.begin("linear.emulate", id)
	em := linear.NewEmulator(lp, 0)
	sh.checksum, err = em.Run()
	wt.end(s)
	if err != nil {
		return sh, err
	}
	sh.useful = em.Instrs
	s = wt.begin("lang.eval", id)
	want, err := lang.EvalProgram(op.src)
	wt.end(s)
	if err != nil {
		return sh, err
	}
	if want != sh.checksum {
		return sh, fmt.Errorf("%s: linear checksum %d != evaluator %d", op.name, sh.checksum, want)
	}
	sh.steer, sh.sel, sh.rolled = steer.NumInstrs(), sel.NumInstrs(), rolled.NumInstrs()

	w.counts.srcLines += float64(strings.Count(op.src, "\n") + 1)
	w.counts.memOpsEliminated += float64(st.MemBefore - st.MemAfter)
	w.counts.instrsOut += float64(sh.steer)
	w.counts.chainSlots += float64(sh.chains.Slots)
	w.counts.chainNops += float64(sh.chains.Nops)
	w.counts.emulated += float64(em.Instrs)
	return sh, nil
}

func (w *compileWorkload) layers(lc *layerContext) error {
	for _, n := range []string{"lang.parse", "lang.unroll", "lang.eval", "cfgir.build", "cfgir.optimize",
		"cfgir.memopt", "wavec.compile", "linear.compile", "linear.emulate"} {
		lc.set(n+"_s", lc.spanSeconds(n))
	}
	lc.set("lang.src_lines", w.counts.srcLines)
	lc.set("cfgir.instrs_after", w.counts.irInstrs)
	lc.set("cfgir.memops_eliminated", w.counts.memOpsEliminated)
	lc.set("wavec.instrs_out", w.counts.instrsOut)
	lc.set("wavec.chain_slots", w.counts.chainSlots)
	lc.set("wavec.chain_nops", w.counts.chainNops)
	lc.set("linear.emulate_minstr_per_s", ratio(w.counts.emulated/1e6, lc.spanSeconds("linear.emulate")))
	return nil
}

func (w *compileWorkload) verify(*recorder) error { return nil }

func (w *compileWorkload) close() {}
