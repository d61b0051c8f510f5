package cfgir

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"wavescalar/internal/lang"
)

// OptNone as FromSource's optLevel leaves the IR as built: compacted, not
// optimized. It is a test reference: only other packages' tests pass it.
const OptNone = -1

// FromSource is the front half of a compile from source text, spelled out
// for the layer tests: parse and check src (an error is labelled
// "frontend: "), unroll its counted loops in place by `unroll` (0 or 1
// leaves it as it is), Lower (an error is labelled "build: "), then
// OptimizeTo optLevel, whose counters are returned. unrolled reports
// whether lang.Unroll rewrote any loop; when it did not, the IR is the one
// unroll factor 1 yields. harness.CompileSource is the one pipeline that
// builds programs; it runs the same steps on one parse for every binary it
// lowers.
//
// The two halves are exported for the caller that wants the IR of both the
// file as written and its unrolled form from one parse: Lower the file,
// unroll it, Lower it again — only Lower reads the file — and optimize each
// IR wherever it likes, since OptimizeTo touches nothing but its receiver.
// A caller that feeds more than one backend builds once and hands
// wavec.Compile, which consumes its input, a Clone.
//
// FromSource is a test reference: only other packages' tests call it.
func FromSource(src string, unroll, optLevel int) (p *Program, st MemOptStats, unrolled bool, err error) {
	f, err := lang.ParseAndCheck(src)
	if err != nil {
		return nil, st, false, fmt.Errorf("frontend: %w", err)
	}
	unrolled = lang.Unroll(f, unroll) > 0
	if p, err = Lower(f); err != nil {
		return nil, st, false, fmt.Errorf("build: %w", err)
	}
	return p, p.OptimizeTo(optLevel), unrolled, nil
}

// Lower is the half of FromSource that reads the file: Build, then Compact
// every function.
func Lower(f *lang.File) (*Program, error) {
	p, err := Build(f)
	if err != nil {
		return nil, err
	}
	for _, fn := range p.Funcs {
		fn.Compact()
	}
	return p, nil
}

// OptimizeTo is the half of FromSource that touches only the IR: Optimize
// (optLevel >= 0) and OptimizeMemory (optLevel >= 1, whose counters are
// returned; zero below that).
func (p *Program) OptimizeTo(optLevel int) (st MemOptStats) {
	s := getScratch()
	defer putScratch(s)
	if optLevel >= 0 {
		s.opt.optimizeAll(p)
	}
	if optLevel >= 1 {
		st = s.optimizeMemory(p)
	}
	return st
}

// scratch is the optimizer's working state, both tiers' tables. Optimize,
// OptimizeMemory, OptimizeTo and IfConvert each take one from scratches
// and give it back, so the tables grow to the largest function a scratch
// has seen and later calls reuse them: a pool holds at most one per
// concurrent call. A scratch holds register numbers, expressions, value
// numbers and stamps, never a program's blocks or instructions, so nothing
// a call returns or leaves in its program shares storage with it.
type scratch struct {
	opt optScratch
	mem memScratch
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// getScratch takes a scratch from the pool. A table slot counts as empty
// when its stamp is not the current one, so the stamp counters only grow; a
// scratch whose counter has passed half its range starts over empty, long
// before any call could wrap one round to a stale slot's stamp.
func getScratch() *scratch {
	s := scratches.Get().(*scratch)
	if max(s.opt.epoch, s.mem.cepoch, s.mem.vepoch, s.mem.facts.epoch, s.mem.facts.mark) > math.MaxUint32/2 {
		*s = scratch{}
	}
	s.opt.rounds = 0
	return s
}

// putScratch gives s back to the pool without its maps. A map keeps the
// capacity of its largest use and clearing it costs that capacity, so a
// call grows its own, as it always did; only the tables and lists, which
// a block pass starts with one increment or truncation, are kept.
func putScratch(s *scratch) {
	s.opt.avail, s.opt.settled = nil, nil
	s.mem.cids, s.mem.termVN, s.mem.exprVN = nil, nil, nil
	scratches.Put(s)
}

// Clone returns a deep copy of the program: functions, blocks,
// instructions and call-argument lists are fresh, so rewriting the copy
// (CFG normalization, if-conversion, any optimizer pass) leaves p as it
// was. Globals and FuncIndex are shared; nothing writes them after Build.
func (p *Program) Clone() *Program {
	q := &Program{
		Funcs:     make([]*Func, len(p.Funcs)),
		FuncIndex: p.FuncIndex,
		Globals:   p.Globals,
		MemWords:  p.MemWords,
	}
	for i, f := range p.Funcs {
		g := *f
		g.Params = slices.Clone(f.Params)
		blocks := make([]Block, len(f.Blocks))
		g.Blocks = make([]*Block, len(f.Blocks))
		for j, b := range f.Blocks {
			nb := &blocks[j]
			*nb = *b
			nb.Instrs = slices.Clone(b.Instrs)
			for k := range nb.Instrs {
				nb.Instrs[k].Args = slices.Clone(nb.Instrs[k].Args)
			}
			g.Blocks[j] = nb
		}
		q.Funcs[i] = &g
	}
	return q
}
