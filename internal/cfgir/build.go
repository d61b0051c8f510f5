package cfgir

import (
	"fmt"
	"slices"
	"sync"

	"wavescalar/internal/isa"
	"wavescalar/internal/lang"
)

// Build lowers a checked wsl file into CFG IR.
func Build(file *lang.File) (*Program, error) {
	layout := lang.BuildLayout(file)
	p := &Program{
		FuncIndex: make(map[string]int),
		MemWords:  layout.Words,
	}
	for _, g := range file.Globals {
		p.Globals = append(p.Globals, isa.Global{
			Name: g.Name,
			Addr: layout.Addr[g.Name],
			Size: g.Size,
			Init: append([]int64(nil), g.Init...),
		})
	}
	for i, fn := range file.Funcs {
		p.FuncIndex[fn.Name] = i
	}
	buf := buildBufs.Get().(*buildBuf)
	defer buildBufs.Put(buf)
	for _, fn := range file.Funcs {
		b := &builder{prog: p, layout: layout, file: file, buf: buf}
		irf, err := b.buildFunc(fn)
		if err != nil {
			return nil, err
		}
		p.Funcs = append(p.Funcs, irf)
	}
	return p, nil
}

// builder lowers one function.
type builder struct {
	prog   *Program
	layout *lang.Layout
	file   *lang.File

	fn  *Func
	cur *Block // the block being emitted into; enter moves on from it
	buf *buildBuf

	// vars maps source variable names to their dedicated registers, as a
	// scope stack mirroring the checker's.
	vars []map[string]Reg

	// loop targets for break/continue.
	loops []loopCtx

	err error
}

type loopCtx struct {
	breakTo    int
	continueTo int
}

func (b *builder) errorf(pos lang.Pos, format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...))
	}
}

func (b *builder) pushScope() { b.vars = append(b.vars, make(map[string]Reg)) }
func (b *builder) popScope()  { b.vars = b.vars[:len(b.vars)-1] }

func (b *builder) declare(name string) Reg {
	r := b.fn.NewReg()
	b.vars[len(b.vars)-1][name] = r
	return r
}

func (b *builder) lookup(name string) (Reg, bool) {
	for i := len(b.vars) - 1; i >= 0; i-- {
		if r, ok := b.vars[i][name]; ok {
			return r, true
		}
	}
	return NoReg, false
}

// buildBuf is what a builder stages a function's instructions in, reused
// by every function of a Build and, through buildBufs, by later Builds.
// The builder only moves forward — it never enters a block it has left —
// so each block's instructions are one run of instrs, and seal copies the
// function out at its exact size. Between functions it holds nothing of
// the program.
type buildBuf struct {
	instrs []Instr
	runs   []run
	open   int // where the current block's run starts
}

// run is one block's instructions, instrs[lo:hi].
type run struct {
	block  *Block
	lo, hi int
}

var buildBufs = sync.Pool{New: func() any { return new(buildBuf) }}

func (b *builder) emit(in Instr) { b.buf.instrs = append(b.buf.instrs, in) }

// enter ends the current block's run and makes blk (nil for unreachable
// code) the block emitted into.
func (b *builder) enter(blk *Block) {
	buf := b.buf
	if b.cur != nil && len(buf.instrs) > buf.open {
		buf.runs = append(buf.runs, run{block: b.cur, lo: buf.open, hi: len(buf.instrs)})
	}
	b.cur, buf.open = blk, len(buf.instrs)
}

// seal ends the last run and gives every block its instructions: one array
// for the function, each block a run of it whose capacity is its length.
func (b *builder) seal() {
	b.enter(nil)
	buf := b.buf
	slab := slices.Clone(buf.instrs)
	for _, r := range buf.runs {
		if r.block.Instrs != nil {
			panic("cfgir: builder re-entered a block it had left")
		}
		r.block.Instrs = slab[r.lo:r.hi:r.hi]
	}
	clear(buf.instrs) // the call-argument lists are the program's
	clear(buf.runs)
	buf.instrs, buf.runs, buf.open = buf.instrs[:0], buf.runs[:0], 0
}

func (b *builder) emitConst(v int64) Reg {
	r := b.fn.NewReg()
	b.emit(Instr{Kind: KConst, Dst: r, Imm: v})
	return r
}

func (b *builder) emitAlu(op isa.Opcode, a, bb Reg) Reg {
	r := b.fn.NewReg()
	b.emit(Instr{Kind: KAlu, Op: op, Dst: r, A: a, B: bb})
	return r
}

// copyTo emits Dst = src as an or-with-zero (the IR has no move; the
// optimizer folds these away or the backends treat them as moves).
func (b *builder) copyTo(dst, src Reg) {
	zero := b.emitConst(0)
	b.emit(Instr{Kind: KAlu, Op: isa.OpOr, Dst: dst, A: src, B: zero})
}

// terminate seals the current block and switches to next (which may be nil
// for unreachable continuations).
func (b *builder) setTerm(t Term) { b.cur.Term = t }

func (b *builder) buildFunc(fn *lang.FuncDecl) (*Func, error) {
	b.fn = &Func{Name: fn.Name}
	entry := b.fn.NewBlock()
	b.fn.Entry = entry.ID
	b.enter(entry)
	b.pushScope()
	for _, pname := range fn.Params {
		b.fn.Params = append(b.fn.Params, b.declare(pname))
	}
	b.buildBlockStmt(fn.Body)
	// Implicit "return 0" on fallthrough.
	if b.cur != nil {
		zero := b.emitConst(0)
		b.setTerm(Term{Kind: TRet, Val: zero})
	}
	b.seal()
	b.popScope()
	if b.err != nil {
		return nil, b.err
	}
	// Blocks left untermimated cannot exist: every path above seals.
	return b.fn, nil
}

func (b *builder) buildBlockStmt(blk *lang.Block) {
	b.pushScope()
	defer b.popScope()
	for _, s := range blk.Stmts {
		if b.cur == nil {
			return // unreachable code after return/break/continue
		}
		b.buildStmt(s)
	}
}

func (b *builder) buildStmt(s lang.Stmt) {
	switch s := s.(type) {
	case *lang.Block:
		b.buildBlockStmt(s)
	case *lang.VarStmt:
		var v Reg
		if s.Init != nil {
			v = b.buildExpr(s.Init)
		} else {
			v = b.emitConst(0)
		}
		r := b.declare(s.Name)
		b.copyTo(r, v)
	case *lang.AssignStmt:
		v := b.buildExpr(s.Val)
		if r, ok := b.lookup(s.Name); ok {
			b.copyTo(r, v)
			return
		}
		// Scalar global.
		addr := b.emitConst(b.layout.Addr[s.Name])
		b.emit(Instr{Kind: KStore, A: addr, B: v, Dst: NoReg})
	case *lang.StoreStmt:
		idx := b.buildExpr(s.Index)
		val := b.buildExpr(s.Val)
		addr := b.arrayAddr(s.Name, idx)
		b.emit(Instr{Kind: KStore, A: addr, B: val, Dst: NoReg})
	case *lang.IfStmt:
		cond := b.buildExpr(s.Cond)
		thenB := b.fn.NewBlock()
		var elseB *Block
		joinB := b.fn.NewBlock()
		elseTarget := joinB.ID
		if s.Else != nil {
			elseB = b.fn.NewBlock()
			elseTarget = elseB.ID
		}
		b.setTerm(Term{Kind: TBranch, Cond: cond, Then: thenB.ID, Else: elseTarget})
		b.enter(thenB)
		b.buildBlockStmt(s.Then)
		if b.cur != nil {
			b.setTerm(Term{Kind: TJump, Then: joinB.ID})
		}
		if s.Else != nil {
			b.enter(elseB)
			b.buildStmt(s.Else)
			if b.cur != nil {
				b.setTerm(Term{Kind: TJump, Then: joinB.ID})
			}
		}
		b.enter(joinB)
	case *lang.WhileStmt:
		headB := b.fn.NewBlock()
		bodyB := b.fn.NewBlock()
		exitB := b.fn.NewBlock()
		b.setTerm(Term{Kind: TJump, Then: headB.ID})
		b.enter(headB)
		cond := b.buildExpr(s.Cond)
		b.setTerm(Term{Kind: TBranch, Cond: cond, Then: bodyB.ID, Else: exitB.ID})
		b.loops = append(b.loops, loopCtx{breakTo: exitB.ID, continueTo: headB.ID})
		b.enter(bodyB)
		b.buildBlockStmt(s.Body)
		if b.cur != nil {
			b.setTerm(Term{Kind: TJump, Then: headB.ID})
		}
		b.loops = b.loops[:len(b.loops)-1]
		b.enter(exitB)
	case *lang.ForStmt:
		b.pushScope()
		defer b.popScope()
		if s.Init != nil {
			b.buildStmt(s.Init)
		}
		headB := b.fn.NewBlock()
		bodyB := b.fn.NewBlock()
		postB := b.fn.NewBlock()
		exitB := b.fn.NewBlock()
		b.setTerm(Term{Kind: TJump, Then: headB.ID})
		b.enter(headB)
		if s.Cond != nil {
			cond := b.buildExpr(s.Cond)
			b.setTerm(Term{Kind: TBranch, Cond: cond, Then: bodyB.ID, Else: exitB.ID})
		} else {
			b.setTerm(Term{Kind: TJump, Then: bodyB.ID})
		}
		b.loops = append(b.loops, loopCtx{breakTo: exitB.ID, continueTo: postB.ID})
		b.enter(bodyB)
		b.buildBlockStmt(s.Body)
		if b.cur != nil {
			b.setTerm(Term{Kind: TJump, Then: postB.ID})
		}
		b.loops = b.loops[:len(b.loops)-1]
		b.enter(postB)
		if s.Post != nil {
			b.buildStmt(s.Post)
		}
		b.setTerm(Term{Kind: TJump, Then: headB.ID})
		b.enter(exitB)
	case *lang.ReturnStmt:
		var v Reg
		if s.Val != nil {
			v = b.buildExpr(s.Val)
		} else {
			v = b.emitConst(0)
		}
		b.setTerm(Term{Kind: TRet, Val: v})
		b.enter(nil)
	case *lang.BreakStmt:
		lc := b.loops[len(b.loops)-1]
		b.setTerm(Term{Kind: TJump, Then: lc.breakTo})
		b.enter(nil)
	case *lang.ContinueStmt:
		lc := b.loops[len(b.loops)-1]
		b.setTerm(Term{Kind: TJump, Then: lc.continueTo})
		b.enter(nil)
	case *lang.ExprStmt:
		b.buildExpr(s.X)
	default:
		panic(fmt.Sprintf("cfgir: unknown statement %T", s))
	}
}

// arrayAddr computes &name[idx].
func (b *builder) arrayAddr(name string, idx Reg) Reg {
	base := b.layout.Addr[name]
	if base == 0 {
		return idx
	}
	baseR := b.emitConst(base)
	return b.emitAlu(isa.OpAdd, baseR, idx)
}

func (b *builder) buildExpr(e lang.Expr) Reg {
	switch e := e.(type) {
	case *lang.IntLit:
		return b.emitConst(e.Val)
	case *lang.Ident:
		if r, ok := b.lookup(e.Name); ok {
			return r
		}
		addr := b.emitConst(b.layout.Addr[e.Name])
		r := b.fn.NewReg()
		b.emit(Instr{Kind: KLoad, Dst: r, A: addr})
		return r
	case *lang.IndexExpr:
		idx := b.buildExpr(e.Index)
		addr := b.arrayAddr(e.Name, idx)
		r := b.fn.NewReg()
		b.emit(Instr{Kind: KLoad, Dst: r, A: addr})
		return r
	case *lang.CallExpr:
		args := make([]Reg, len(e.Args))
		for i, a := range e.Args {
			args[i] = b.buildExpr(a)
		}
		r := b.fn.NewReg()
		b.emit(Instr{Kind: KCall, Dst: r, Callee: b.prog.FuncIndex[e.Name], Args: args})
		return r
	case *lang.UnaryExpr:
		x := b.buildExpr(e.X)
		switch e.Op {
		case lang.TokMinus:
			return b.emitAlu(isa.OpNeg, x, NoReg)
		case lang.TokTilde:
			return b.emitAlu(isa.OpNot, x, NoReg)
		case lang.TokBang:
			zero := b.emitConst(0)
			return b.emitAlu(isa.OpEq, x, zero)
		}
		panic(fmt.Sprintf("cfgir: unknown unary op %v", e.Op))
	case *lang.BinaryExpr:
		switch e.Op {
		case lang.TokAndAnd, lang.TokOrOr:
			return b.buildShortCircuit(e)
		}
		l := b.buildExpr(e.L)
		r := b.buildExpr(e.R)
		return b.emitAlu(lang.BinaryOpcode(e.Op), l, r)
	default:
		panic(fmt.Sprintf("cfgir: unknown expression %T", e))
	}
}

// buildShortCircuit lowers && and || to control flow writing a dedicated
// result register.
func (b *builder) buildShortCircuit(e *lang.BinaryExpr) Reg {
	result := b.fn.NewReg()
	l := b.buildExpr(e.L)
	zero := b.emitConst(0)
	lbool := b.emitAlu(isa.OpNe, l, zero)

	rhsB := b.fn.NewBlock()
	joinB := b.fn.NewBlock()

	// For &&: if lbool is false the result is 0 and we skip the RHS.
	// For ||: if lbool is true the result is 1 and we skip the RHS.
	b.copyTo(result, lbool)
	if e.Op == lang.TokAndAnd {
		b.setTerm(Term{Kind: TBranch, Cond: lbool, Then: rhsB.ID, Else: joinB.ID})
	} else {
		b.setTerm(Term{Kind: TBranch, Cond: lbool, Then: joinB.ID, Else: rhsB.ID})
	}
	b.enter(rhsB)
	r := b.buildExpr(e.R)
	zero2 := b.emitConst(0)
	rbool := b.emitAlu(isa.OpNe, r, zero2)
	b.copyTo(result, rbool)
	b.setTerm(Term{Kind: TJump, Then: joinB.ID})
	b.enter(joinB)
	return result
}
