package cfgir

import "wavescalar/internal/isa"

// Optimize runs the standard pass pipeline on every function until it
// reaches a fixpoint (bounded by a few rounds). Passes:
//
//   - constant folding and algebraic simplification
//   - local copy propagation (through or-with-zero moves)
//   - local common-subexpression elimination
//   - branch folding (constant conditions, branches to identical targets)
//   - dead code elimination (liveness-based)
//   - unreachable-block removal and renumbering
//
// The pipeline is deliberately local-plus-liveness: the source of most
// redundancy is the builder's move-heavy lowering, which these passes clean
// up completely on straight-line code.
func (p *Program) Optimize() {
	for _, f := range p.Funcs {
		f.Compact()
		for round := 0; round < 4; round++ {
			changed := false
			for _, b := range f.Blocks {
				if foldConstants(f, b) {
					changed = true
				}
				if localCSE(b) {
					changed = true
				}
			}
			if foldBranches(f) {
				changed = true
			}
			if eliminateDeadCode(f) {
				changed = true
			}
			f.Compact()
			if !changed {
				break
			}
		}
	}
}

// foldConstants tracks registers with known constant values within a block,
// folds ALU operations over them, and simplifies algebraic identities.
// Because variable registers are multiply assigned, the constant map is
// purely local and is invalidated at redefinition.
func foldConstants(f *Func, b *Block) bool {
	changed := false
	consts := make(map[Reg]int64)
	for i := range b.Instrs {
		in := &b.Instrs[i]
		switch in.Kind {
		case KConst:
			consts[in.Dst] = in.Imm
			continue
		case KAlu:
			av, aok := consts[in.A]
			bv, bok := consts[in.B]
			unary := in.Op.NumInputs() == 1
			if aok && (unary || bok) {
				v := isa.EvalALU(in.Op, av, bv)
				*in = Instr{Kind: KConst, Dst: in.Dst, Imm: v}
				consts[in.Dst] = v
				changed = true
				continue
			}
			// Algebraic identities that turn into moves (or-with-zero) so
			// copy propagation can consume them.
			simplify := func(src Reg) {
				zero := f.NewReg()
				b.Instrs = append(b.Instrs, Instr{})
				copy(b.Instrs[i+1:], b.Instrs[i:])
				b.Instrs[i] = Instr{Kind: KConst, Dst: zero, Imm: 0}
				b.Instrs[i+1] = Instr{Kind: KAlu, Op: isa.OpOr, Dst: b.Instrs[i+1].Dst, A: src, B: zero}
				changed = true
			}
			simplified := false
			switch {
			case in.Op == isa.OpAdd && bok && bv == 0:
				simplify(in.A)
				simplified = true
			case in.Op == isa.OpAdd && aok && av == 0:
				simplify(in.B)
				simplified = true
			case in.Op == isa.OpMul && bok && bv == 1:
				simplify(in.A)
				simplified = true
			case in.Op == isa.OpMul && aok && av == 1:
				simplify(in.B)
				simplified = true
			}
			if simplified {
				// The original destination is now defined by the inserted
				// move; any constant previously recorded for it is stale.
				delete(consts, b.Instrs[i+1].Dst)
				continue
			}
		}
		if in.HasDst() {
			delete(consts, in.Dst)
		}
	}
	return changed
}

// localCSE merges repeated pure computations within a block. The value
// table keys on (op, operands) and is invalidated when an operand register
// is redefined. Loads are also merged until the next store or call.
//
// Every invalidation goes through a reverse index, so the pass is linear
// in the block: readers lists the expressions that read a register, held
// is the expression whose value a register holds (one at most: defining a
// register first invalidates it), copiedTo lists the copies made from it,
// and loads the load expressions since the last store or call. An index
// entry may outlive the fact it recorded (the expression was dropped some
// other way, or the register now holds a different copy), so each is
// checked against avail or copies before it is acted on.
func localCSE(b *Block) bool {
	type key struct {
		kind InstrKind
		op   isa.Opcode
		a, b Reg
		c    Reg
		imm  int64
	}
	changed := false
	avail := make(map[key]Reg)     // expression -> register holding it
	readers := make(map[Reg][]key) // operand register -> expressions reading it
	held := make(map[Reg]key)      // register -> expression it holds
	copies := make(map[Reg]Reg)    // copy propagation map (dst -> src)
	copiedTo := make(map[Reg][]Reg)
	var loads []key

	resolve := func(r Reg) Reg {
		for {
			s, ok := copies[r]
			if !ok {
				return r
			}
			r = s
		}
	}
	invalidate := func(r Reg) {
		// Expressions that read r are stale.
		for _, k := range readers[r] {
			delete(avail, k)
		}
		delete(readers, r)
		// Expressions whose cached value lives in r are stale too (variable
		// registers are multiply assigned).
		if k, ok := held[r]; ok {
			if v, ok := avail[k]; ok && v == r {
				delete(avail, k)
			}
			delete(held, r)
		}
		delete(copies, r)
		// Any copy that resolves through r is stale.
		for _, d := range copiedTo[r] {
			if s, ok := copies[d]; ok && s == r {
				delete(copies, d)
			}
		}
		delete(copiedTo, r)
	}
	copyFrom := func(dst, src Reg) {
		copies[dst] = src
		copiedTo[src] = append(copiedTo[src], dst)
	}

	for i := range b.Instrs {
		in := &b.Instrs[i]
		// Rewrite operands through the copy map first.
		switch in.Kind {
		case KAlu:
			na, nb := resolve(in.A), resolve(in.B)
			if na != in.A || (in.Op.NumInputs() == 2 && nb != in.B) {
				in.A = na
				if in.Op.NumInputs() == 2 {
					in.B = nb
				}
				changed = true
			}
		case KLoad:
			if na := resolve(in.A); na != in.A {
				in.A = na
				changed = true
			}
		case KStore:
			na, nb := resolve(in.A), resolve(in.B)
			if na != in.A || nb != in.B {
				in.A, in.B = na, nb
				changed = true
			}
		case KSelect:
			na, nb, nc := resolve(in.A), resolve(in.B), resolve(in.C)
			if na != in.A || nb != in.B || nc != in.C {
				in.A, in.B, in.C = na, nb, nc
				changed = true
			}
		case KCall:
			for j, a := range in.Args {
				if na := resolve(a); na != a {
					in.Args[j] = na
					changed = true
				}
			}
		}

		var k key
		cacheable := false
		switch in.Kind {
		case KConst:
			k = key{kind: KConst, imm: in.Imm}
			cacheable = true
		case KAlu:
			k = key{kind: KAlu, op: in.Op, a: in.A, b: in.B}
			if in.Op.NumInputs() == 1 {
				k.b = NoReg
			}
			cacheable = true
		case KLoad:
			k = key{kind: KLoad, a: in.A}
			cacheable = true
		case KSelect:
			k = key{kind: KSelect, a: in.A, b: in.B, c: in.C}
			cacheable = true
		case KStore, KCall:
			// Memory is clobbered: drop all cached loads.
			for _, kk := range loads {
				delete(avail, kk)
			}
			loads = loads[:0]
		}

		if in.HasDst() {
			invalidate(in.Dst)
		}

		if cacheable {
			if prev, ok := avail[k]; ok && prev != in.Dst {
				// Replace with a copy; later iterations propagate it.
				dst := in.Dst
				*in = Instr{Kind: KAlu, Op: isa.OpOr, Dst: dst, A: prev, B: prev}
				copyFrom(dst, prev)
				changed = true
				continue
			}
			avail[k] = in.Dst
			held[in.Dst] = k
			if in.Kind == KLoad {
				loads = append(loads, k)
			}
			if k.a != NoReg && in.Kind != KConst {
				readers[k.a] = append(readers[k.a], k)
			}
			if k.b != NoReg && (in.Kind == KAlu || in.Kind == KSelect) {
				readers[k.b] = append(readers[k.b], k)
			}
			if k.c != NoReg && in.Kind == KSelect {
				readers[k.c] = append(readers[k.c], k)
			}
			// `or dst, src, zero` moves feed copy propagation when the
			// source is stable within the block.
			if in.Kind == KAlu && in.Op == isa.OpOr && in.A == in.B {
				copyFrom(in.Dst, in.A)
			}
		}
	}
	return changed
}

// foldBranches replaces branches on constant conditions with jumps and
// collapses branches whose arms agree.
func foldBranches(f *Func) bool {
	changed := false
	for _, b := range f.Blocks {
		if b.Term.Kind != TBranch {
			continue
		}
		if b.Term.Then == b.Term.Else {
			b.Term = Term{Kind: TJump, Then: b.Term.Then}
			changed = true
			continue
		}
		// Constant condition: scan the block for the defining const.
		cond := b.Term.Cond
		known := false
		var cv int64
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.HasDst() && in.Dst == cond {
				if in.Kind == KConst {
					known, cv = true, in.Imm
				} else {
					known = false
				}
			}
		}
		if known {
			target := b.Term.Else
			if cv != 0 {
				target = b.Term.Then
			}
			b.Term = Term{Kind: TJump, Then: target}
			changed = true
		}
	}
	return changed
}

// eliminateDeadCode removes pure instructions whose results are never used.
func eliminateDeadCode(f *Func) bool {
	_, liveOut := f.Liveness()
	changed := false
	var buf []Reg
	for bi, b := range f.Blocks {
		live := liveOut[bi].Clone()
		switch b.Term.Kind {
		case TBranch:
			live.Add(b.Term.Cond)
		case TRet:
			live.Add(b.Term.Val)
		}
		keep := make([]Instr, 0, len(b.Instrs))
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			if in.Pure() && !live.Has(in.Dst) {
				changed = true
				continue
			}
			if in.HasDst() {
				live.Remove(in.Dst)
			}
			buf = in.Uses(buf[:0])
			for _, r := range buf {
				live.Add(r)
			}
			keep = append(keep, in)
		}
		// keep is reversed.
		for i, j := 0, len(keep)-1; i < j; i, j = i+1, j-1 {
			keep[i], keep[j] = keep[j], keep[i]
		}
		b.Instrs = keep
	}
	return changed
}
