package wavec

import (
	"fmt"
	"math/bits"
	"testing"

	"wavescalar/internal/cfgir"
	"wavescalar/internal/isa"
	"wavescalar/internal/lang"
	"wavescalar/internal/testprogs"
	"wavescalar/internal/workloads"
)

// chainFunc is one compiled function read back onto the IR blocks it was
// lowered from: the memory annotations each block announces, in program
// order, and the wave-exit nop on each of its out-edges that leaves the wave.
type chainFunc struct {
	ir    *cfgir.Func
	fc    *funcCompiler // the wave partition only: waveOf, entryOf, crossing
	slots [][]isa.Instruction
	exits [][2]*isa.Instruction // by block, then Then / Else
}

// readChains maps f's emitted memory-annotated instructions back onto the IR
// blocks of ir, which must be the function as Compile left it (critical edges
// split, if-conversion applied). It relies only on emission order — blocks in
// order, within a block its memory operations in program order, then the
// wave-exit nops of its out-edges, Then before Else — and on which IR
// instructions take a chain slot; it never reads the memory plan. A block that
// should announce a MEMORY-NOP but does not is left with no slots, for the
// path check to report.
func readChains(prog *isa.Program, f *isa.Function, ir *cfgir.Func) (*chainFunc, error) {
	fc := &funcCompiler{ir: ir, out: &isa.Function{}, preds: ir.Preds(), back: ir.BackEdges()}
	fc.assignWaves()
	if fc.out.NumWaves != f.NumWaves {
		return nil, fmt.Errorf("%d waves emitted, the partition has %d", f.NumWaves, fc.out.NumWaves)
	}
	var mems []*isa.Instruction
	var exitNop []bool
	for i := range f.Instrs {
		if f.Instrs[i].Mem.Kind != isa.MemNone {
			mems = append(mems, &f.Instrs[i])
			exitNop = append(exitNop, f.Comment(isa.InstrID(i)) == "wave exit")
		}
	}
	cf := &chainFunc{ir: ir, fc: fc,
		slots: make([][]isa.Instruction, len(ir.Blocks)), exits: make([][2]*isa.Instruction, len(ir.Blocks))}
	next := 0
	take := func(want isa.MemKind, exit bool) *isa.Instruction {
		if next < len(mems) && mems[next].Mem.Kind == want && exitNop[next] == exit {
			next++
			return mems[next-1]
		}
		return nil
	}
	for id, b := range ir.Blocks {
		silent := b.Term.Kind != cfgir.TRet
		for i := range b.Instrs {
			in := &b.Instrs[i]
			var want isa.MemKind
			switch {
			case in.Kind == cfgir.KLoad:
				want = isa.MemLoad
			case in.Kind == cfgir.KStore:
				want = isa.MemStore
			case in.Kind == cfgir.KCall && prog.Funcs[in.Callee].TouchesMemory:
				want = isa.MemCall
			default:
				continue
			}
			silent = false
			m := take(want, false)
			if m == nil {
				return nil, fmt.Errorf("block %d instruction %d: no %v annotation where emission order puts it", id, i, want)
			}
			cf.slots[id] = append(cf.slots[id], *m)
		}
		if silent {
			if m := take(isa.MemNop, false); m != nil {
				cf.slots[id] = append(cf.slots[id], *m)
			}
		}
		if b.Term.Kind == cfgir.TRet {
			m := take(isa.MemEnd, false)
			if m == nil {
				return nil, fmt.Errorf("return block %d carries no MemEnd", id)
			}
			cf.slots[id] = append(cf.slots[id], *m)
			continue
		}
		for k, v := range b.Succs() {
			if fc.crossing(id, v) {
				if cf.exits[id][k] = take(isa.MemNop, true); cf.exits[id][k] == nil {
					return nil, fmt.Errorf("edge %d->%d leaves wave %d with no wave-exit nop", id, v, fc.waveOf[id])
				}
			}
		}
	}
	if next != len(mems) {
		return nil, fmt.Errorf("%d memory annotations left over after the last block (next: %v)", len(mems)-next, mems[next].Mem)
	}
	return cf, nil
}

// waveGraph is one wave as the store buffer sees it: its memory operations
// in a topological order, an edge from each to every operation that can
// follow it on some path (the next slot of its block, the first slot of an
// in-wave successor block, the exit nop of an edge that leaves the wave).
// A path through the wave is a path from entry to a node with no successor.
type waveGraph struct {
	ops   []isa.MemOrder
	where []string
	succ  [][]int
	entry int
}

// wave builds wave w's graph. Blocks come in reverse postorder and an
// in-wave edge is never a back edge, so numbering the nodes block by block
// is a topological order. Every block of the wave must announce an
// operation: a memory-silent one through its MEMORY-NOP.
func (cf *chainFunc) wave(w int32) (*waveGraph, error) {
	g := &waveGraph{}
	first := make([]int, len(cf.ir.Blocks))
	node := func(m isa.MemOrder, where string) int {
		g.ops = append(g.ops, m)
		g.where = append(g.where, where)
		g.succ = append(g.succ, nil)
		return len(g.ops) - 1
	}
	var blocks []int
	for u, b := range cf.ir.Blocks {
		if cf.fc.waveOf[u] != w {
			continue
		}
		if len(cf.slots[u]) == 0 {
			return nil, fmt.Errorf("block %d announces no memory operation (a memory-silent block needs a MEMORY-NOP)", u)
		}
		if cf.fc.entryOf[u] {
			g.entry = len(g.ops)
		}
		blocks = append(blocks, u)
		first[u] = len(g.ops)
		for i, in := range cf.slots[u] {
			if in.Wave != w {
				return nil, fmt.Errorf("block %d announces %v in wave %d", u, in.Mem, in.Wave)
			}
			n := node(in.Mem, fmt.Sprintf("block %d slot %d", u, i))
			if i > 0 {
				g.succ[n-1] = append(g.succ[n-1], n)
			}
		}
		last := len(g.ops) - 1
		for k, v := range b.Succs() {
			if exit := cf.exits[u][k]; exit != nil {
				g.succ[last] = append(g.succ[last], node(exit.Mem, fmt.Sprintf("exit %d->%d", u, v)))
			}
		}
	}
	for _, u := range blocks {
		last := first[u] + len(cf.slots[u]) - 1
		for k, v := range cf.ir.Blocks[u].Succs() {
			if cf.exits[u][k] == nil {
				g.succ[last] = append(g.succ[last], first[v])
			}
		}
	}
	return g, nil
}

// resolveChain assembles the annotations one path announces exactly as a
// store buffer does (waveorder.Engine.drain): from isa.WaveStart, repeatedly
// the operation that links to the last issued (isa.MemOrder.Links). It
// requires one complete chain: at every step exactly one candidate, and it
// is the next operation in program order; the last operation's Succ is
// SeqEnd; nothing is left over.
func resolveChain(seqs []isa.MemOrder) error {
	used := make([]bool, len(seqs))
	last := isa.WaveStart
	for k := range seqs {
		if last.Succ == isa.SeqEnd {
			return fmt.Errorf("chain %v ends after %d of %d operations", seqs, k, len(seqs))
		}
		found := -1
		for i := range seqs {
			if used[i] || !last.Links(seqs[i]) {
				continue
			}
			if found >= 0 {
				return fmt.Errorf("chain %v: after %d operations both %v and %v link", seqs, k, seqs[found], seqs[i])
			}
			found = i
		}
		switch {
		case found < 0:
			return fmt.Errorf("chain %v breaks after %d operations", seqs, k)
		case found != k:
			return fmt.Errorf("chain %v resolves %v out of program order (position %d of %d)", seqs, seqs[found], k, len(seqs))
		}
		used[found] = true
		last = seqs[found]
	}
	if last.Succ != isa.SeqEnd {
		return fmt.Errorf("chain %v never reaches SeqEnd", seqs)
	}
	return nil
}

// paths counts the paths through g, saturating at limit+1.
func (g *waveGraph) paths(limit int) int {
	count := make([]int, len(g.ops))
	for i := len(g.ops) - 1; i >= 0; i-- {
		if len(g.succ[i]) == 0 {
			count[i] = 1
		}
		for _, s := range g.succ[i] {
			count[i] = min(count[i]+count[s], limit+1)
		}
	}
	return count[g.entry]
}

// enumerate walks every path through g and resolves each with resolveChain.
func (g *waveGraph) enumerate() error {
	var walk func(i int, seqs []isa.MemOrder) error
	walk = func(i int, seqs []isa.MemOrder) error {
		seqs = append(seqs, g.ops[i])
		if len(g.succ[i]) == 0 {
			return resolveChain(seqs)
		}
		for _, s := range g.succ[i] {
			if err := walk(s, seqs[:len(seqs):len(seqs)]); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(g.entry, nil)
}

// checkAllPaths is what "resolveChain accepts every path through g" comes to
// when the paths are too many to walk (one wave of adpcm's unrolled steer
// binary has 2^32): a path resolves iff its first operation alone names
// SeqStart, each operation links to the one before it, only its last one
// names SeqEnd as successor, and no operation links to one further back than
// its predecessor (else the store buffer sees two candidates at that step).
// Each condition is about one node, one edge or one pair of nodes on a
// common path, so over all paths it is a check of every node, every edge,
// and every node against everything reachable past each of its successors.
func (g *waveGraph) checkAllPaths() error {
	words := (len(g.ops) + 63) / 64
	beyond := make([][]uint64, len(g.ops)) // nodes reachable in one or more steps
	for i := len(g.ops) - 1; i >= 0; i-- {
		r := make([]uint64, words)
		for _, s := range g.succ[i] {
			r[s/64] |= 1 << (s % 64)
			for w := range r {
				r[w] |= beyond[s][w]
			}
		}
		beyond[i] = r
	}
	for i, a := range g.ops {
		switch {
		case (i == g.entry) != isa.WaveStart.Links(a):
			return fmt.Errorf("%s %v: only the wave's first operation may name SeqStart, and it must", g.where[i], a)
		case len(g.succ[i]) == 0 && a.Succ != isa.SeqEnd:
			return fmt.Errorf("%s %v: a path ends here without reaching SeqEnd", g.where[i], a)
		case len(g.succ[i]) > 0 && a.Succ == isa.SeqEnd:
			return fmt.Errorf("%s %v: names SeqEnd before its path ends", g.where[i], a)
		}
		for _, s := range g.succ[i] {
			if !a.Links(g.ops[s]) {
				return fmt.Errorf("%s %v: %s %v can follow it but does not link to it", g.where[i], a, g.where[s], g.ops[s])
			}
			for w, word := range beyond[s] {
				for ; word != 0; word &= word - 1 {
					if c := w*64 + bits.TrailingZeros64(word); a.Links(g.ops[c]) {
						return fmt.Errorf("%s %v: %s %v links to it past %s", g.where[i], a, g.where[c], g.ops[c], g.where[s])
					}
				}
			}
		}
	}
	return nil
}

// enumerateLimit is the most paths a wave may have for the test to walk
// them one by one as well.
const enumerateLimit = 1 << 12

// checkProgramChains compiles src through the harness's pipeline shape (parse,
// unroll, lower, optimize, lower to dataflow) and checks every path through
// every wave of every memory-touching function. It returns how many paths
// there are and how many of them were also walked one by one.
func checkProgramChains(t *testing.T, name, src string, unroll, optLevel int, opts Options) (paths, walked float64) {
	t.Helper()
	f, err := lang.ParseAndCheck(src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	lang.Unroll(f, unroll)
	p, err := cfgir.Lower(f)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	p.OptimizeTo(optLevel)
	wp, err := Compile(p, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for fi := range wp.Funcs {
		wf := &wp.Funcs[fi]
		if !wf.TouchesMemory {
			for i := range wf.Instrs {
				if wf.Instrs[i].Mem.Kind != isa.MemNone {
					t.Errorf("%s: %s touches no memory but announces %v", name, wf.Name, wf.Instrs[i].Mem)
				}
			}
			continue
		}
		cf, err := readChains(wp, wf, p.Funcs[fi])
		if err != nil {
			t.Errorf("%s: %s: %v", name, wf.Name, err)
			continue
		}
		for w := int32(0); w < wf.NumWaves; w++ {
			g, err := cf.wave(w)
			if err == nil {
				err = g.checkAllPaths()
			}
			if err != nil {
				t.Errorf("%s: %s: wave %d: %v", name, wf.Name, w, err)
				continue
			}
			n := g.paths(1 << 40)
			paths += float64(n)
			if n <= enumerateLimit {
				// The literal definition, wherever it is affordable, so the
				// two verdicts are seen to agree.
				if err := g.enumerate(); err != nil {
					t.Errorf("%s: %s: wave %d: checkAllPaths accepts what a walk rejects: %v", name, wf.Name, w, err)
				}
				walked += float64(n)
			}
		}
	}
	return paths, walked
}

// TestEveryPathCarriesOneCompleteChain is the paper's wave-ordering invariant
// checked statically: for every acyclic path through every wave — no
// simulation, so no lenient store buffer or lucky schedule can hide a
// compiler bug — the <pred, this, succ> annotations the path announces
// resolve to exactly one complete SeqStart … SeqEnd chain, in program order,
// and every block on it, memory-silent ones included, announces at least one
// operation. It covers the ten kernels, the hand-written corpus and both
// program generators, in the steer and if-converted lowerings unrolled at O1
// and the steer lowering rolled at O0.
func TestEveryPathCarriesOneCompleteChain(t *testing.T) {
	type prog struct{ name, src string }
	var progs []prog
	for _, w := range workloads.All {
		progs = append(progs, prog{w.Name, w.Src})
	}
	for _, c := range testprogs.Corpus {
		progs = append(progs, prog{c.Name, c.Src})
	}
	for _, s := range testprogs.CorpusSpecs(50, 1) {
		src, err := testprogs.GenerateSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{s.Name(), src})
	}
	for seed := int64(1); seed <= 30; seed++ {
		progs = append(progs, prog{fmt.Sprintf("generate-%d", seed), testprogs.Generate(seed)})
	}
	var paths, walked float64
	for _, v := range []struct {
		unroll, opt int
		opts        Options
	}{
		{4, 1, Options{}},
		{4, 1, Options{IfConvert: true}},
		{0, 0, Options{}},
	} {
		for _, p := range progs {
			n, k := checkProgramChains(t, p.name, p.src, v.unroll, v.opt, v.opts)
			paths, walked = paths+n, walked+k
		}
	}
	t.Logf("%d programs x 3 lowerings: %.0f wave paths, each one complete chain (%.0f also walked one by one)", len(progs), paths, walked)
}

// TestResolveChainRejects pins both checkers on hand-made chains, so a
// lenient one cannot make the path test above vacuous: resolveChain on the
// chain as one path, checkAllPaths on the same chain as a one-path graph.
func TestResolveChainRejects(t *testing.T) {
	const W, S, E = isa.SeqWildcard, isa.SeqStart, isa.SeqEnd
	m := func(seq, pred, succ int32) isa.MemOrder {
		return isa.MemOrder{Kind: isa.MemNop, Seq: seq, Pred: pred, Succ: succ}
	}
	for _, c := range []struct {
		name string
		seqs []isa.MemOrder
		ok   bool
	}{
		{"one op", []isa.MemOrder{m(0, S, E)}, true},
		{"linked by succ", []isa.MemOrder{m(0, S, 2), m(2, W, E)}, true},
		{"linked by pred", []isa.MemOrder{m(0, S, W), m(1, 0, E)}, true},
		{"no start", []isa.MemOrder{m(0, W, E)}, false},
		{"two starts", []isa.MemOrder{m(0, S, W), m(1, S, E)}, false},
		{"wildcards on both sides", []isa.MemOrder{m(0, S, W), m(1, W, E)}, false},
		{"never ends", []isa.MemOrder{m(0, S, 1), m(1, 0, W)}, false},
		{"ends early", []isa.MemOrder{m(0, S, E), m(1, 0, E)}, false},
		{"links past its predecessor", []isa.MemOrder{m(0, S, W), m(1, 0, W), m(2, 0, E)}, false},
		{"out of program order", []isa.MemOrder{m(0, S, 2), m(1, 2, E), m(2, 0, 1)}, false},
	} {
		if err := resolveChain(c.seqs); (err == nil) != c.ok {
			t.Errorf("%s: resolveChain = %v, want ok=%v", c.name, err, c.ok)
		}
		g := &waveGraph{ops: c.seqs, where: make([]string, len(c.seqs)), succ: make([][]int, len(c.seqs))}
		for i := 1; i < len(c.seqs); i++ {
			g.succ[i-1] = []int{i}
		}
		if err := g.checkAllPaths(); (err == nil) != c.ok {
			t.Errorf("%s: checkAllPaths = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	if err := resolveChain(nil); err == nil {
		t.Error("resolveChain accepts an empty path")
	}
}
