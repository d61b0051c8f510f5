package cfgir

import (
	"slices"

	"wavescalar/internal/isa"
)

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
//
// A round reruns the two block-local passes only where they can still do
// something. Both are functions of the block's instruction list alone, so
// when a block's list comes out of them exactly as it went in, rerunning
// them can only do the same until something else edits that list — and
// between rounds only dead-code elimination does. A block in that state is
// settled and later rounds skip it. The passes are judged by that net
// edit, not by what they report: folding turns `r1 = or r0, r0` with r0
// known to be 37 into `r1 = 37` and CSE turns it straight back, so both
// report a change on a block that never moves. A round that leaves every
// block, branch and instruction as it was is the function's fixpoint, and
// the iteration stops there; the rounds see the same edits, stop at the
// same point and emit the same IR as rounds that run every pass on every
// block (TestOptimizeMatchesRunEverythingReference).
func (p *Program) Optimize() {
	s := getScratch()
	defer putScratch(s)
	s.opt.optimizeAll(p)
}

// optimizeAll is Optimize on s.
func (s *optScratch) optimizeAll(p *Program) {
	for _, f := range p.Funcs {
		s.optimize(f)
	}
}

// maxRounds bounds the fixpoint iteration of the pass pipelines.
const maxRounds = 4

// optimize is Optimize on one function. It leaves f.converged saying
// whether the last round changed nothing, as opposed to the round bound
// cutting the iteration short.
func (s *optScratch) optimize(f *Func) {
	f.compact(&s.dfs)
	f.converged = false
	if s.settled == nil {
		s.settled = make(map[*Block]bool)
	}
	clear(s.settled)
	for round := 0; round < maxRounds; round++ {
		s.rounds++
		changed := false
		for _, b := range f.Blocks {
			if s.settled[b] {
				continue
			}
			s.snapshot(b)
			// Not `||`: localCSE runs whatever foldConstants reported. A
			// pass that reports no change edited nothing, so only a report
			// needs the compare.
			folded, merged := s.foldConstants(f, b), s.localCSE(f, b)
			if (folded || merged) && !s.unedited(b) {
				changed = true
			} else {
				s.settled[b] = true
			}
		}
		if foldBranches(f) {
			changed = true
		}
		if s.eliminateDeadCode(f) {
			changed = true
		}
		f.compact(&s.dfs)
		if !changed {
			f.converged = true
			break
		}
	}
}

// optScratch is the working state of the base passes, reused by every
// block of every function and round and, through scratches, by later
// calls.
// What a pass knows about a register lives in a table indexed by Reg, each
// slot stamped with the block pass that last wrote it: a slot with another
// stamp is empty, so starting a block pass is one increment and clears
// nothing. localCSE's expressions and per-register lists live in arrays
// the block pass starts empty, so a slot is 32 bytes with no pointer.
type optScratch struct {
	epoch   uint32 // the current block pass; never 0, a fresh slot's stamp
	regs    []regFacts
	exprs   []cseKey       // localCSE: the expressions recorded in avail, in order
	readers []link         // localCSE: the reader chains, newest first; a key indexes exprs
	copies  []link         // localCSE: the copy chains, newest first; a key is a register
	avail   map[cseKey]Reg // localCSE: expression -> register holding it
	loads   []cseKey       // localCSE: load expressions since the last store or call
	uses    []Reg          // eliminateDeadCode: one instruction's operands
	live    LiveSets       // eliminateDeadCode: the function's liveness
	dfs     dfs            // Compact's walk and renumbering
	// settled holds the blocks of the function being optimized that the
	// local passes last left as they found them and whose instructions
	// nothing has edited since.
	settled map[*Block]bool
	// snap is a block's instructions as they were before the local passes
	// ran on it, their call-argument lists (which localCSE rewrites in
	// place) copied end to end into snapArgs, so the snapshot shares no
	// storage with the IR.
	snap     []Instr
	snapArgs []Reg
	rounds   int // optimizer rounds run on this scratch since getScratch
}

// snapshot records b's instructions for unedited.
func (s *optScratch) snapshot(b *Block) {
	s.snap = append(s.snap[:0], b.Instrs...)
	s.snapArgs = s.snapArgs[:0]
	for i := range b.Instrs {
		s.snapArgs = append(s.snapArgs, b.Instrs[i].Args...)
	}
	args := s.snapArgs
	for i := range s.snap {
		n := len(s.snap[i].Args)
		s.snap[i].Args, args = args[:n:n], args[n:]
	}
}

// unedited reports whether b's instructions are field for field what the
// last snapshot recorded.
func (s *optScratch) unedited(b *Block) bool {
	if len(b.Instrs) != len(s.snap) {
		return false
	}
	for i := range b.Instrs {
		in, was := &b.Instrs[i], &s.snap[i]
		if in.Kind != was.Kind || in.Op != was.Op || in.Dst != was.Dst || in.A != was.A || in.B != was.B ||
			in.C != was.C || in.Imm != was.Imm || in.Callee != was.Callee || !slices.Equal(in.Args, was.Args) {
			return false
		}
	}
	return true
}

// regFacts is one register's slot. foldConstants uses the constant fields
// and localCSE the rest; the two never share a block pass.
type regFacts struct {
	stamp    uint32
	isConst  bool // the register holds constVal
	isHeld   bool // the register holds the value of expression exprs[held]
	isCopy   bool // the register is a copy of copyOf
	copyOf   Reg
	held     int32
	readers  int32 // head of the chain of expressions that read the register; -1 ends a chain
	copiedTo int32 // head of the chain of registers made copies of it
	constVal int64
}

// cseKey is an expression localCSE can reuse: the operation and its operand
// registers (an immediate for a constant).
type cseKey struct {
	kind InstrKind
	op   isa.Opcode
	a, b Reg
	c    Reg
	imm  int64
}

// begin starts a block pass over a block of f: every slot becomes empty and
// the table covers the registers f has now (foldConstants adds some, so
// each pass sizes the table for itself).
func (s *optScratch) begin(f *Func) {
	s.epoch++
	s.exprs, s.readers, s.copies = s.exprs[:0], s.readers[:0], s.copies[:0]
	if n := f.NumRegs - len(s.regs); n > 0 {
		s.regs = append(s.regs, make([]regFacts, n)...)
	}
}

// at returns r's slot for writing, emptied if an earlier pass wrote it last.
func (s *optScratch) at(r Reg) *regFacts {
	e := &s.regs[r]
	if e.stamp != s.epoch {
		e.stamp = s.epoch
		e.isConst, e.isHeld, e.isCopy = false, false, false
		e.readers, e.copiedTo = -1, -1
	}
	return e
}

// peek returns r's slot if this pass has written it and nil otherwise,
// which covers NoReg and a register allocated after begin.
func (s *optScratch) peek(r Reg) *regFacts {
	if uint(r) < uint(len(s.regs)) && s.regs[r].stamp == s.epoch {
		return &s.regs[r]
	}
	return nil
}

// constOf is the constant r is known to hold.
func (s *optScratch) constOf(r Reg) (int64, bool) {
	if e := s.peek(r); e != nil && e.isConst {
		return e.constVal, true
	}
	return 0, false
}

func (s *optScratch) forgetConst(r Reg) {
	if e := s.peek(r); e != nil {
		e.isConst = false
	}
}

// foldConstants tracks registers with known constant values within a block,
// folds ALU operations over them, and simplifies algebraic identities.
// Because variable registers are multiply assigned, the constant table is
// purely local and is invalidated at redefinition.
func (s *optScratch) foldConstants(f *Func, b *Block) bool {
	s.begin(f)
	changed := false
	for i := range b.Instrs {
		in := &b.Instrs[i]
		switch in.Kind {
		case KConst:
			e := s.at(in.Dst)
			e.isConst, e.constVal = true, in.Imm
			continue
		case KAlu:
			av, aok := s.constOf(in.A)
			bv, bok := s.constOf(in.B)
			unary := in.Op.NumInputs() == 1
			if aok && (unary || bok) {
				v := isa.EvalALU(in.Op, av, bv)
				*in = Instr{Kind: KConst, Dst: in.Dst, Imm: v}
				e := s.at(in.Dst)
				e.isConst, e.constVal = true, v
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
				s.forgetConst(b.Instrs[i+1].Dst)
				continue
			}
		}
		if in.HasDst() {
			s.forgetConst(in.Dst)
		}
	}
	return changed
}

// resolve follows the copy chain from r to the register it stands for.
func (s *optScratch) resolve(r Reg) Reg {
	for {
		e := s.peek(r)
		if e == nil || !e.isCopy {
			return r
		}
		r = e.copyOf
	}
}

// invalidate drops everything localCSE knows that a new definition of r
// makes stale.
func (s *optScratch) invalidate(r Reg) {
	e := s.at(r)
	// Expressions that read r are stale.
	for l := e.readers; l >= 0; l = s.readers[l].next {
		delete(s.avail, s.exprs[s.readers[l].key])
	}
	e.readers = -1
	// The expression whose cached value lives in r is stale too (variable
	// registers are multiply assigned).
	if e.isHeld {
		if k := s.exprs[e.held]; s.avail[k] == r {
			delete(s.avail, k) // a no-op when k was dropped some other way
		}
		e.isHeld = false
	}
	e.isCopy = false
	// Any copy that resolves through r is stale.
	for l := e.copiedTo; l >= 0; l = s.copies[l].next {
		if de := s.peek(Reg(s.copies[l].key)); de != nil && de.isCopy && de.copyOf == r {
			de.isCopy = false
		}
	}
	e.copiedTo = -1
}

func (s *optScratch) copyFrom(dst, src Reg) {
	e := s.at(dst)
	e.isCopy, e.copyOf = true, src
	se := s.at(src)
	s.copies = append(s.copies, link{key: int32(dst), next: se.copiedTo})
	se.copiedTo = int32(len(s.copies) - 1)
}

// addReader records that expression exprs[x] reads r.
func (s *optScratch) addReader(r Reg, x int32) {
	e := s.at(r)
	s.readers = append(s.readers, link{key: x, next: e.readers})
	e.readers = int32(len(s.readers) - 1)
}

// localCSE merges repeated pure computations within a block. The value
// table keys on (op, operands) and is invalidated when an operand register
// is redefined. Loads are also merged until the next store or call.
//
// Every invalidation goes through a reverse index, so the pass is linear
// in the block: a register's readers lists the expressions that read it,
// held is the expression whose value it holds (one at most: defining a
// register first invalidates it), copiedTo lists the copies made from it,
// and loads the load expressions since the last store or call. An index
// entry may outlive the fact it recorded (the expression was dropped some
// other way, or the register now holds a different copy), so each is
// checked against avail or the copy it names before it is acted on.
func (s *optScratch) localCSE(f *Func, b *Block) bool {
	s.begin(f)
	if s.avail == nil {
		s.avail = make(map[cseKey]Reg)
	}
	clear(s.avail)
	s.loads = s.loads[:0]
	changed := false

	for i := range b.Instrs {
		in := &b.Instrs[i]
		// Rewrite operands through the copy map first.
		switch in.Kind {
		case KAlu:
			na, nb := s.resolve(in.A), s.resolve(in.B)
			if na != in.A || (in.Op.NumInputs() == 2 && nb != in.B) {
				in.A = na
				if in.Op.NumInputs() == 2 {
					in.B = nb
				}
				changed = true
			}
		case KLoad:
			if na := s.resolve(in.A); na != in.A {
				in.A = na
				changed = true
			}
		case KStore:
			na, nb := s.resolve(in.A), s.resolve(in.B)
			if na != in.A || nb != in.B {
				in.A, in.B = na, nb
				changed = true
			}
		case KSelect:
			na, nb, nc := s.resolve(in.A), s.resolve(in.B), s.resolve(in.C)
			if na != in.A || nb != in.B || nc != in.C {
				in.A, in.B, in.C = na, nb, nc
				changed = true
			}
		case KCall:
			for j, a := range in.Args {
				if na := s.resolve(a); na != a {
					in.Args[j] = na
					changed = true
				}
			}
		}

		var k cseKey
		cacheable := false
		switch in.Kind {
		case KConst:
			k = cseKey{kind: KConst, imm: in.Imm}
			cacheable = true
		case KAlu:
			k = cseKey{kind: KAlu, op: in.Op, a: in.A, b: in.B}
			if in.Op.NumInputs() == 1 {
				k.b = NoReg
			}
			cacheable = true
		case KLoad:
			k = cseKey{kind: KLoad, a: in.A}
			cacheable = true
		case KSelect:
			k = cseKey{kind: KSelect, a: in.A, b: in.B, c: in.C}
			cacheable = true
		case KStore, KCall:
			// Memory is clobbered: drop all cached loads.
			for _, kk := range s.loads {
				delete(s.avail, kk)
			}
			s.loads = s.loads[:0]
		}

		if in.HasDst() {
			s.invalidate(in.Dst)
		}

		if cacheable {
			if prev, ok := s.avail[k]; ok && prev != in.Dst {
				// Replace with a copy; later iterations propagate it.
				dst := in.Dst
				*in = Instr{Kind: KAlu, Op: isa.OpOr, Dst: dst, A: prev, B: prev}
				s.copyFrom(dst, prev)
				changed = true
				continue
			}
			s.avail[k] = in.Dst
			x := int32(len(s.exprs))
			s.exprs = append(s.exprs, k)
			e := s.at(in.Dst)
			e.isHeld, e.held = true, x
			if in.Kind == KLoad {
				s.loads = append(s.loads, k)
			}
			if k.a != NoReg && in.Kind != KConst {
				s.addReader(k.a, x)
			}
			if k.b != NoReg && (in.Kind == KAlu || in.Kind == KSelect) {
				s.addReader(k.b, x)
			}
			if k.c != NoReg && in.Kind == KSelect {
				s.addReader(k.c, x)
			}
			// `or dst, src, zero` moves feed copy propagation when the
			// source is stable within the block.
			if in.Kind == KAlu && in.Op == isa.OpOr && in.A == in.B {
				s.copyFrom(in.Dst, in.A)
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

// eliminateDeadCode removes pure instructions whose results are never used,
// compacting each block in place. The live sets are the scratch's own, so a
// block's live-out set is walked backwards through the block as it is. A
// block that loses an instruction is no longer settled.
func (s *optScratch) eliminateDeadCode(f *Func) bool {
	s.live.Compute(f)
	liveOut := s.live.Out
	changed := false
	for bi, b := range f.Blocks {
		live := liveOut[bi]
		switch b.Term.Kind {
		case TBranch:
			live.Add(b.Term.Cond)
		case TRet:
			live.Add(b.Term.Val)
		}
		// Survivors move to the tail of the slice as the walk meets them,
		// which keeps their order; the walk reads index i before anything
		// can be written there (w > i until the first removal, w >= i
		// after).
		w := len(b.Instrs)
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := &b.Instrs[i]
			if in.Pure() && !live.Has(in.Dst) {
				continue
			}
			if in.HasDst() {
				live.Remove(in.Dst)
			}
			s.uses = in.Uses(s.uses[:0])
			for _, r := range s.uses {
				live.Add(r)
			}
			w--
			if w != i {
				b.Instrs[w] = *in
			}
		}
		if w > 0 {
			n := copy(b.Instrs, b.Instrs[w:])
			clear(b.Instrs[n:]) // drop the stale tail's references to call-argument lists
			b.Instrs = b.Instrs[:n]
			delete(s.settled, b)
			changed = true
		}
	}
	return changed
}
