package isa

import "fmt"

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
	if p.MemWords < 0 {
		return fmt.Errorf("isa: negative memory size %d", p.MemWords)
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

	// Memory sequence numbers must be unique within a static wave.
	seen := make(map[[2]int32]InstrID)
	for ii := range f.Instrs {
		in := &f.Instrs[ii]
		if in.Mem.Kind == MemNone {
			continue
		}
		key := [2]int32{in.Wave, in.Mem.Seq}
		if prev, dup := seen[key]; dup {
			return fail(InstrID(ii), "duplicate memory sequence %d in wave %d (also i%d)", in.Mem.Seq, in.Wave, prev)
		}
		seen[key] = InstrID(ii)
	}
	return nil
}
