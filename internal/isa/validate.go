package isa

import (
	"cmp"
	"fmt"
	"slices"
)

// Validate checks the structural integrity of a program: destination runs
// and port ranges, call targets, parameter pads, memory annotations, and the
// data-segment layout. The compiler runs it on every binary it emits, and
// the execution engines rely on its guarantees.
func (p *Program) Validate() error {
	if len(p.Funcs) == 0 {
		return fmt.Errorf("isa: program has no functions")
	}
	if p.Entry < 0 || int(p.Entry) >= len(p.Funcs) {
		return fmt.Errorf("isa: entry function %d out of range", p.Entry)
	}
	if err := p.validateGlobals(); err != nil {
		return err
	}
	for fi := range p.Funcs {
		if err := p.validateFunc(FuncID(fi)); err != nil {
			return err
		}
	}
	return nil
}

func (p *Program) validateGlobals() error {
	if p.MemWords < 0 || p.MemWords > MaxMemWords {
		return fmt.Errorf("isa: memory size %d outside [0, %d]", p.MemWords, MaxMemWords)
	}
	for i, g := range p.Globals {
		if g.Size <= 0 {
			return fmt.Errorf("isa: global %q has size %d", g.Name, g.Size)
		}
		if g.Addr < 0 || g.Addr+g.Size > p.MemWords {
			return fmt.Errorf("isa: global %q [%d,%d) outside memory of %d words",
				g.Name, g.Addr, g.Addr+g.Size, p.MemWords)
		}
		if int64(len(g.Init)) > g.Size {
			return fmt.Errorf("isa: global %q has %d initializers for %d words",
				g.Name, len(g.Init), g.Size)
		}
		for j := 0; j < i; j++ {
			h := p.Globals[j]
			if g.Addr < h.Addr+h.Size && h.Addr < g.Addr+g.Size {
				return fmt.Errorf("isa: globals %q and %q overlap", g.Name, h.Name)
			}
		}
	}
	return nil
}

func (p *Program) validateFunc(fid FuncID) error {
	f := &p.Funcs[fid]
	fail := func(i InstrID, format string, args ...any) error {
		return fmt.Errorf("isa: %s/i%d: %s", f.Name, i, fmt.Sprintf(format, args...))
	}

	if len(f.Params) == 0 {
		return fmt.Errorf("isa: %s: no parameter pads (pad 0 must be the activation trigger)", f.Name)
	}
	for pi, pad := range f.Params {
		if pad < 0 || int(pad) >= len(f.Instrs) {
			return fmt.Errorf("isa: %s: param pad %d references instruction %d out of range", f.Name, pi, pad)
		}
		if op := f.Instrs[pad].Op; op != OpNop {
			return fmt.Errorf("isa: %s: param pad %d is %s, want nop", f.Name, pi, op)
		}
	}

	for ii := range f.Instrs {
		id := InstrID(ii)
		in := &f.Instrs[ii]
		if int(in.Op) >= int(opcodeCount) {
			return fail(id, "invalid opcode %d", in.Op)
		}
		ni := in.Op.NumInputs()
		if in.ImmMask>>ni != 0 {
			return fail(id, "immediate mask %#x covers ports beyond %d inputs", in.ImmMask, ni)
		}
		if in.ImmMask == (uint8(1)<<ni)-1 {
			return fail(id, "all %d inputs immediate: no token port to supply a tag", ni)
		}
		if in.Op != OpSteer && in.NFalse != 0 {
			return fail(id, "%s has a false-path destination list", in.Op)
		}
		end := int64(in.DestLo) + int64(in.NDests) + int64(in.NFalse)
		if in.DestLo < 0 || end > int64(len(f.Dests)) {
			return fail(id, "destinations [%d,%d) outside the function's %d", in.DestLo, end, len(f.Dests))
		}
		for _, d := range f.Dests[in.DestLo:end] { // both lists: they are adjacent
			if d.Instr < 0 || int(d.Instr) >= len(f.Instrs) {
				return fail(id, "destination instruction %d out of range", d.Instr)
			}
			dni := f.Instrs[d.Instr].Op.NumInputs()
			if int(d.Port) >= dni {
				return fail(id, "destination i%d port %d out of range (%s has %d inputs)",
					d.Instr, d.Port, f.Instrs[d.Instr].Op, dni)
			}
			if f.Instrs[d.Instr].ImmMask&(1<<d.Port) != 0 {
				return fail(id, "destination i%d port %d is an immediate port", d.Instr, d.Port)
			}
		}

		switch in.Op {
		case OpSendArg, OpNewCtx:
			if in.Target < 0 || int(in.Target) >= len(p.Funcs) {
				return fail(id, "call target %d out of range", in.Target)
			}
			callee := &p.Funcs[in.Target]
			if in.Op == OpSendArg {
				if in.TargetPad < 0 || int(in.TargetPad) >= len(callee.Params) {
					return fail(id, "argument pad %d out of range for %s (%d pads)",
						in.TargetPad, callee.Name, len(callee.Params))
				}
			} else {
				if in.TargetPad < 0 || int(in.TargetPad) >= len(f.Instrs) {
					return fail(id, "return landing pad %d out of range", in.TargetPad)
				}
				wantMem := callee.TouchesMemory
				haveMem := in.Mem.Kind == MemCall
				if wantMem != haveMem {
					return fail(id, "call slot annotation mismatch: callee %s touches memory=%v, annotation=%v",
						callee.Name, wantMem, haveMem)
				}
			}
		}

		if in.Mem.Kind != MemNone {
			if !in.Op.IsMemCapable() {
				return fail(id, "%s cannot carry memory annotation %v", in.Op, in.Mem)
			}
			if in.Mem.Seq < 0 {
				return fail(id, "memory sequence number %d must be non-negative", in.Mem.Seq)
			}
			if in.Mem.Pred != SeqWildcard && in.Mem.Pred != SeqStart && in.Mem.Pred < 0 {
				return fail(id, "bad predecessor %d", in.Mem.Pred)
			}
			if in.Mem.Succ != SeqWildcard && in.Mem.Succ != SeqEnd && in.Mem.Succ < 0 {
				return fail(id, "bad successor %d", in.Mem.Succ)
			}
			switch in.Op {
			case OpLoad:
				if in.Mem.Kind != MemLoad {
					return fail(id, "load annotated %v", in.Mem.Kind)
				}
			case OpStore:
				if in.Mem.Kind != MemStore {
					return fail(id, "store annotated %v", in.Mem.Kind)
				}
			case OpMemNop:
				if in.Mem.Kind != MemNop {
					return fail(id, "mem-nop annotated %v", in.Mem.Kind)
				}
			case OpNewCtx:
				if in.Mem.Kind != MemCall {
					return fail(id, "new-ctx annotated %v", in.Mem.Kind)
				}
			case OpReturn:
				if in.Mem.Kind != MemEnd {
					return fail(id, "return annotated %v", in.Mem.Kind)
				}
			}
		} else {
			switch in.Op {
			case OpLoad, OpStore, OpMemNop:
				return fail(id, "%s missing memory annotation", in.Op)
			case OpReturn:
				if f.TouchesMemory {
					return fail(id, "return in memory-touching function missing MemEnd annotation")
				}
			}
		}

		if in.Wave < 0 || (f.NumWaves > 0 && in.Wave >= f.NumWaves) {
			return fail(id, "wave %d out of range [0,%d)", in.Wave, f.NumWaves)
		}
	}

	for i, n := range f.Comments {
		if n.Instr < 0 || int(n.Instr) >= len(f.Instrs) || i > 0 && n.Instr <= f.Comments[i-1].Instr {
			return fmt.Errorf("isa: %s: note %d on i%d out of range or out of order", f.Name, i, n.Instr)
		}
	}

	return f.validateChains()
}

// validateChains holds each wave of f to the link rule, MemOrder.Links,
// statically. Per wave: (1) sequence numbers are unique; (2) every concrete
// Pred and Succ names an operation; (3) both ends of a link agree; (4) a ?
// Pred is named by some Succ and a ? Succ by some Pred, so no ? meets a ?;
// (5) every operation lies on a Links path from WaveStart to a SeqEnd. (5)
// implies (4): an unnamed ? Pred leaves its operation no incoming link, an
// unnamed ? Succ none outgoing. It is a necessary condition only: for
// compiler output, wavec's path checker is the proof that every path
// resolves to one chain.
func (f *Function) validateChains() error {
	var ops []*Instruction
	for i := range f.Instrs {
		if f.Instrs[i].Mem.Kind != MemNone {
			ops = append(ops, &f.Instrs[i])
		}
	}
	slices.SortFunc(ops, func(a, b *Instruction) int {
		return cmp.Or(cmp.Compare(a.Wave, b.Wave), cmp.Compare(a.Mem.Seq, b.Mem.Seq))
	})
	for lo, hi := 0, 0; lo < len(ops); lo = hi {
		for hi = lo + 1; hi < len(ops) && ops[hi].Wave == ops[lo].Wave; hi++ {
		}
		if err := checkWave(ops[lo:hi]); err != nil {
			return fmt.Errorf("isa: %s wave %d: %v", f.Name, ops[lo].Wave, err)
		}
	}
	return nil
}

// checkWave applies validateChains' rules to one wave's memory operations,
// sorted by sequence number.
func checkWave(ops []*Instruction) error {
	const fromStart, toEnd = 1, 2
	flags := make([]uint8, len(ops))
	bySeq := func(in *Instruction, s int32) int { return cmp.Compare(in.Mem.Seq, s) }
	at := func(s int32) int { // the operation s names, or -1
		if i, ok := slices.BinarySearchFunc(ops, s, bySeq); ok {
			return i
		}
		return -1
	}
	for i, in := range ops {
		a := in.Mem
		if i > 0 && ops[i-1].Mem.Seq == a.Seq {
			return fmt.Errorf("%v and %v share sequence number %d", ops[i-1].Mem, a, a.Seq)
		}
		if a.Succ >= 0 {
			j := at(a.Succ)
			if j < 0 {
				return fmt.Errorf("%v succ names nothing", a)
			}
			if b := ops[j].Mem; b.Pred != SeqWildcard && at(b.Pred) != i {
				return fmt.Errorf("%v -> %v disagree", a, b)
			}
		}
		if a.Pred >= 0 {
			j := at(a.Pred)
			if j < 0 {
				return fmt.Errorf("%v pred names nothing", a)
			}
			if b := ops[j].Mem; b.Succ != SeqWildcard && at(b.Succ) != i {
				return fmt.Errorf("%v -> %v disagree", b, a)
			}
		}
	}
	// spread marks with flag what edge reaches from the operations seed picks.
	spread := func(flag uint8, seed func(MemOrder) bool, edge func(from, to MemOrder) bool) {
		var stack []int
		for i, in := range ops {
			if seed(in.Mem) {
				flags[i] |= flag
				stack = append(stack, i)
			}
		}
		for len(stack) > 0 {
			from := ops[stack[len(stack)-1]].Mem
			stack = stack[:len(stack)-1]
			for i, in := range ops {
				if flags[i]&flag == 0 && edge(from, in.Mem) {
					flags[i] |= flag
					stack = append(stack, i)
				}
			}
		}
	}
	spread(fromStart, WaveStart.Links, MemOrder.Links)
	spread(toEnd, func(a MemOrder) bool { return a.Succ == SeqEnd }, func(from, to MemOrder) bool { return to.Links(from) })
	for i, in := range ops {
		if flags[i] != fromStart|toEnd {
			return fmt.Errorf("%v lies on no path from ^ to $", in.Mem)
		}
	}
	return nil
}
