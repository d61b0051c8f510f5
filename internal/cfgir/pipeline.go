package cfgir

import (
	"fmt"
	"slices"

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
	if optLevel >= 0 {
		p.Optimize()
	}
	if optLevel >= 1 {
		st = p.OptimizeMemory()
	}
	return st
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
