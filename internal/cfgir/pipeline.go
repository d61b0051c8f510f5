package cfgir

import (
	"fmt"
	"slices"

	"wavescalar/internal/lang"
)

// OptNone as FromFile's optLevel leaves the IR as built: compacted, not
// optimized.
const OptNone = -1

// FromSource is the front half of a compile from source text: parse and
// check src, then FromFile. A front-end error is labelled "frontend: ".
func FromSource(src string, unroll, optLevel int) (p *Program, st MemOptStats, unrolled bool, err error) {
	f, err := lang.ParseAndCheck(src)
	if err != nil {
		return nil, st, false, fmt.Errorf("frontend: %w", err)
	}
	return FromFile(f, unroll, optLevel)
}

// FromFile is the front half of every compile on a checked file, and the
// one home of its sequence: unroll f's counted loops in place by `unroll`
// (0 or 1 leaves f as it is), Lower (an error is labelled "build: "), then
// OptimizeTo optLevel, whose counters are returned. unrolled reports
// whether lang.Unroll rewrote any loop; when it did not, the IR is the one
// unroll factor 1 yields.
//
// The two halves are exported for the caller that wants the IR of both the
// file as written and its unrolled form from one parse: Lower the file,
// unroll it, Lower it again — only Lower reads the file — and optimize each
// IR wherever it likes, since OptimizeTo touches nothing but its receiver.
//
// A caller that feeds more than one backend builds once and hands
// wavec.Compile, which consumes its input, a Clone.
func FromFile(f *lang.File, unroll, optLevel int) (p *Program, st MemOptStats, unrolled bool, err error) {
	unrolled = lang.Unroll(f, unroll) > 0
	if p, err = Lower(f); err != nil {
		return nil, st, false, fmt.Errorf("build: %w", err)
	}
	return p, p.OptimizeTo(optLevel), unrolled, nil
}

// Lower is the half of FromFile that reads the file: Build, then Compact
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

// OptimizeTo is the half of FromFile that touches only the IR: Optimize
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
