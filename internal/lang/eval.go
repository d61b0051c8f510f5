package lang

import (
	"fmt"

	"wavescalar/internal/isa"
)

// Evaluator is the reference tree-walking interpreter for wsl programs. It
// is the first (and simplest) correctness oracle: every other execution
// engine in the repository must produce the same result and final memory
// image as this one.
//
// NewEvaluator binds every name once: a local variable to a slot above its
// activation's base, a global to its address and size, a call to its
// function. What it builds is private to the evaluator — the file is only
// read, so any number of evaluators may share one — and running the program
// indexes where a name-keyed interpreter would scan a binding stack and hash
// a layout map on every access.
//
// Why a local's slot is a property of the source text: a function's
// parameters take slots 0..n-1; a `var` statement takes the next free slot
// of its activation; a block (and a for statement, for its init clause)
// gives its slots back on exit. Statements of a block run in order and none
// runs twice without its block being left in between, so the number of live
// declarations in front of any statement never depends on the path taken to
// it. This holds for a file lang.Unroll has rewritten too: the binder walks
// whatever tree it is given and knows no loop shape.
type Evaluator struct {
	main *boundFunc
	mem  []int64
	fuel int64
	vars []int64 // slots of every live activation, innermost last

	// Steps counts executed statements and expressions, a crude work
	// metric useful for sanity-checking workload sizes.
	Steps int64
}

// ErrOutOfFuel is returned when execution exceeds the step budget.
var ErrOutOfFuel = fmt.Errorf("lang: evaluation exceeded step budget")

// NewEvaluator prepares an evaluator for a checked file. fuel bounds the
// number of evaluation steps (0 means a default of 500M).
func NewEvaluator(f *File, fuel int64) *Evaluator {
	if fuel == 0 {
		fuel = 500_000_000
	}
	b := binder{layout: BuildLayout(f), funcs: make(map[string]*boundFunc, len(f.Funcs))}
	mem := make([]int64, b.layout.Words)
	for _, g := range f.Globals {
		copy(mem[b.layout.Addr[g.Name]:], g.Init)
	}
	// Every function exists before any body is bound: calls may be
	// recursive or name a function declared further down.
	for _, fn := range f.Funcs {
		b.funcs[fn.Name] = &boundFunc{params: len(fn.Params)}
	}
	for _, fn := range f.Funcs {
		b.bindFunc(b.funcs[fn.Name], fn)
	}
	return &Evaluator{main: b.funcs["main"], mem: mem, fuel: fuel}
}

// Memory exposes the evaluator's memory image (live; callers may inspect it
// after Run).
func (ev *Evaluator) Memory() []int64 { return ev.mem }

// Run executes main and returns its result.
func (ev *Evaluator) Run() (int64, error) {
	return ev.call(ev.main, len(ev.vars))
}

// control-flow signals carried through the statement walker.
type ctrl uint8

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// A bound expression or statement is the closure the binder made of it; fp
// is the base of the running activation's slots in ev.vars.
type (
	boundExpr func(ev *Evaluator, fp int) (int64, error)
	boundStmt func(ev *Evaluator, fp int) (ctrl, int64, error)
)

// boundFunc is a function with its names resolved. frame is the most slots
// an activation ever has live, parameters included.
type boundFunc struct {
	params int
	frame  int
	body   boundStmt
}

// binder resolves names as the by-name evaluator would at run time: locals
// holds the declarations live at the point being bound, a local's index is
// its slot, and the innermost declaration of a name wins.
type binder struct {
	layout *Layout
	funcs  map[string]*boundFunc
	locals []string
	fn     *boundFunc // the function being bound
}

func (b *binder) bindFunc(bf *boundFunc, fn *FuncDecl) {
	b.fn = bf
	b.locals = append(b.locals[:0], fn.Params...)
	bf.frame = len(b.locals)
	bf.body = b.block(fn.Body)
}

// declare gives name the next free slot.
func (b *binder) declare(name string) int {
	b.locals = append(b.locals, name)
	b.fn.frame = max(b.fn.frame, len(b.locals))
	return len(b.locals) - 1
}

// local returns the slot of the innermost live declaration of name, or -1
// (a global).
func (b *binder) local(name string) int {
	for i := len(b.locals) - 1; i >= 0; i-- {
		if b.locals[i] == name {
			return i
		}
	}
	return -1
}

// call runs fn on the activation whose parameters the caller has already
// placed in ev.vars[fp : fp+fn.params].
func (ev *Evaluator) call(fn *boundFunc, fp int) (int64, error) {
	if need := fp + fn.frame; need <= cap(ev.vars) {
		ev.vars = ev.vars[:need]
	} else {
		ev.vars = append(ev.vars[:fp+fn.params], make([]int64, fn.frame-fn.params)...)
	}
	c, v, err := fn.body(ev, fp)
	ev.vars = ev.vars[:fp]
	if err != nil {
		return 0, err
	}
	if c == ctrlReturn {
		return v, nil
	}
	return 0, nil // falling off the end returns 0
}

func (ev *Evaluator) step() error {
	ev.Steps++
	ev.fuel--
	if ev.fuel < 0 {
		return ErrOutOfFuel
	}
	return nil
}

// block binds a statement list in a scope of its own. Running it charges no
// step: a block that is itself a statement is charged by stmt.
func (b *binder) block(blk *Block) boundStmt {
	mark := len(b.locals)
	stmts := make([]boundStmt, len(blk.Stmts))
	for i, s := range blk.Stmts {
		stmts[i] = b.stmt(s)
	}
	b.locals = b.locals[:mark]
	return func(ev *Evaluator, fp int) (ctrl, int64, error) {
		for _, s := range stmts {
			if c, v, err := s(ev, fp); err != nil || c != ctrlNone {
				return c, v, err
			}
		}
		return ctrlNone, 0, nil
	}
}

func (b *binder) stmt(s Stmt) boundStmt {
	switch s := s.(type) {
	case *Block:
		body := b.block(s)
		return func(ev *Evaluator, fp int) (ctrl, int64, error) {
			if err := ev.step(); err != nil {
				return ctrlNone, 0, err
			}
			return body(ev, fp)
		}
	case *VarStmt:
		// The initializer is bound first: `var x = x + 1` reads the outer x.
		var init boundExpr
		if s.Init != nil {
			init = b.expr(s.Init)
		}
		slot := b.declare(s.Name)
		return func(ev *Evaluator, fp int) (ctrl, int64, error) {
			if err := ev.step(); err != nil {
				return ctrlNone, 0, err
			}
			var v int64
			if init != nil {
				var err error
				if v, err = init(ev, fp); err != nil {
					return ctrlNone, 0, err
				}
			}
			ev.vars[fp+slot] = v
			return ctrlNone, 0, nil
		}
	case *AssignStmt:
		val := b.expr(s.Val)
		slot, addr := b.local(s.Name), b.layout.Addr[s.Name] // a scalar global when no local has the name
		return func(ev *Evaluator, fp int) (ctrl, int64, error) {
			if err := ev.step(); err != nil {
				return ctrlNone, 0, err
			}
			v, err := val(ev, fp)
			if err != nil {
				return ctrlNone, 0, err
			}
			if slot >= 0 {
				ev.vars[fp+slot] = v
			} else {
				ev.mem[addr] = v
			}
			return ctrlNone, 0, nil
		}
	case *StoreStmt:
		index, val := b.expr(s.Index), b.expr(s.Val)
		base, size, name, pos := b.layout.Addr[s.Name], b.layout.Size[s.Name], s.Name, s.Pos
		return func(ev *Evaluator, fp int) (ctrl, int64, error) {
			if err := ev.step(); err != nil {
				return ctrlNone, 0, err
			}
			idx, err := index(ev, fp)
			if err != nil {
				return ctrlNone, 0, err
			}
			v, err := val(ev, fp)
			if err != nil {
				return ctrlNone, 0, err
			}
			if idx < 0 || idx >= size {
				return ctrlNone, 0, indexError(pos, idx, name, size)
			}
			ev.mem[base+idx] = v
			return ctrlNone, 0, nil
		}
	case *IfStmt:
		cond, then := b.expr(s.Cond), b.block(s.Then)
		var els boundStmt
		if s.Else != nil {
			els = b.stmt(s.Else)
		}
		return func(ev *Evaluator, fp int) (ctrl, int64, error) {
			if err := ev.step(); err != nil {
				return ctrlNone, 0, err
			}
			c, err := cond(ev, fp)
			if err != nil {
				return ctrlNone, 0, err
			}
			if c != 0 {
				return then(ev, fp)
			}
			if els != nil {
				return els(ev, fp)
			}
			return ctrlNone, 0, nil
		}
	case *WhileStmt:
		return b.loop(nil, s.Cond, nil, s.Body)
	case *ForStmt:
		return b.loop(s.Init, s.Cond, s.Post, s.Body)
	case *ReturnStmt:
		var val boundExpr
		if s.Val != nil {
			val = b.expr(s.Val)
		}
		return func(ev *Evaluator, fp int) (ctrl, int64, error) {
			if err := ev.step(); err != nil {
				return ctrlNone, 0, err
			}
			if val == nil {
				return ctrlReturn, 0, nil
			}
			v, err := val(ev, fp)
			if err != nil {
				return ctrlNone, 0, err
			}
			return ctrlReturn, v, nil
		}
	case *BreakStmt:
		return func(ev *Evaluator, fp int) (ctrl, int64, error) {
			return ctrlBreak, 0, ev.step()
		}
	case *ContinueStmt:
		return func(ev *Evaluator, fp int) (ctrl, int64, error) {
			return ctrlContinue, 0, ev.step()
		}
	case *ExprStmt:
		x := b.expr(s.X)
		return func(ev *Evaluator, fp int) (ctrl, int64, error) {
			if err := ev.step(); err != nil {
				return ctrlNone, 0, err
			}
			_, err := x(ev, fp)
			return ctrlNone, 0, err
		}
	default:
		panic(fmt.Sprintf("lang: unknown statement %T", s))
	}
}

// loop binds a while statement (init and post nil) or a for statement. The
// init clause's variable lives in a scope around the whole loop; one step is
// charged on entry and one after every completed iteration.
func (b *binder) loop(initS Stmt, condE Expr, postS Stmt, bodyB *Block) boundStmt {
	mark := len(b.locals)
	var init, post boundStmt
	var cond boundExpr
	if initS != nil {
		init = b.stmt(initS)
	}
	if condE != nil {
		cond = b.expr(condE)
	}
	if postS != nil {
		post = b.stmt(postS)
	}
	body := b.block(bodyB)
	b.locals = b.locals[:mark]
	return func(ev *Evaluator, fp int) (ctrl, int64, error) {
		if err := ev.step(); err != nil {
			return ctrlNone, 0, err
		}
		if init != nil {
			if c, v, err := init(ev, fp); err != nil || c != ctrlNone {
				return c, v, err
			}
		}
		for {
			if cond != nil {
				c, err := cond(ev, fp)
				if err != nil {
					return ctrlNone, 0, err
				}
				if c == 0 {
					return ctrlNone, 0, nil
				}
			}
			c, v, err := body(ev, fp)
			if err != nil {
				return ctrlNone, 0, err
			}
			switch c {
			case ctrlBreak:
				return ctrlNone, 0, nil
			case ctrlReturn:
				return c, v, nil
			}
			if post != nil {
				if c, v, err := post(ev, fp); err != nil || c != ctrlNone {
					return c, v, err
				}
			}
			if err := ev.step(); err != nil {
				return ctrlNone, 0, err
			}
		}
	}
}

func indexError(pos Pos, idx int64, name string, size int64) error {
	return fmt.Errorf("%s: index %d out of range for %q (size %d)", pos, idx, name, size)
}

func (b *binder) expr(e Expr) boundExpr {
	switch e := e.(type) {
	case *IntLit:
		v := e.Val
		return func(ev *Evaluator, fp int) (int64, error) {
			return v, ev.step()
		}
	case *Ident:
		if slot := b.local(e.Name); slot >= 0 {
			return func(ev *Evaluator, fp int) (int64, error) {
				return ev.vars[fp+slot], ev.step()
			}
		}
		addr := b.layout.Addr[e.Name]
		return func(ev *Evaluator, fp int) (int64, error) {
			return ev.mem[addr], ev.step()
		}
	case *IndexExpr:
		index := b.expr(e.Index)
		base, size, name, pos := b.layout.Addr[e.Name], b.layout.Size[e.Name], e.Name, e.Pos
		return func(ev *Evaluator, fp int) (int64, error) {
			if err := ev.step(); err != nil {
				return 0, err
			}
			idx, err := index(ev, fp)
			if err != nil {
				return 0, err
			}
			if idx < 0 || idx >= size {
				return 0, indexError(pos, idx, name, size)
			}
			return ev.mem[base+idx], nil
		}
	case *CallExpr:
		args := make([]boundExpr, len(e.Args))
		for i, a := range e.Args {
			args[i] = b.expr(a)
		}
		fn := b.funcs[e.Name]
		return func(ev *Evaluator, fp int) (int64, error) {
			if err := ev.step(); err != nil {
				return 0, err
			}
			// The arguments are evaluated straight into the callee's
			// parameter slots, which are reserved first so that a call
			// inside an argument builds its activation above them.
			callee := len(ev.vars)
			ev.vars = append(ev.vars, make([]int64, len(args))...)
			for i, a := range args {
				v, err := a(ev, fp)
				if err != nil {
					return 0, err
				}
				ev.vars[callee+i] = v
			}
			return ev.call(fn, callee)
		}
	case *UnaryExpr:
		x, op := b.expr(e.X), e.Op
		if op != TokMinus && op != TokBang && op != TokTilde {
			panic(fmt.Sprintf("lang: unknown unary op %v", op))
		}
		return func(ev *Evaluator, fp int) (int64, error) {
			if err := ev.step(); err != nil {
				return 0, err
			}
			v, err := x(ev, fp)
			if err != nil {
				return 0, err
			}
			switch op {
			case TokMinus:
				return -v, nil
			case TokBang:
				return boolInt(v == 0), nil
			}
			return ^v, nil
		}
	case *BinaryExpr:
		l, r := b.expr(e.L), b.expr(e.R)
		if e.Op == TokAndAnd || e.Op == TokOrOr {
			// Short-circuit forms: the left value that decides the result
			// without the right operand is 0 for &&, nonzero for ||.
			or := e.Op == TokOrOr
			return func(ev *Evaluator, fp int) (int64, error) {
				if err := ev.step(); err != nil {
					return 0, err
				}
				lv, err := l(ev, fp)
				if err != nil {
					return 0, err
				}
				if (lv != 0) == or {
					return boolInt(or), nil
				}
				rv, err := r(ev, fp)
				if err != nil {
					return 0, err
				}
				return boolInt(rv != 0), nil
			}
		}
		op := BinaryOpcode(e.Op)
		return func(ev *Evaluator, fp int) (int64, error) {
			if err := ev.step(); err != nil {
				return 0, err
			}
			lv, err := l(ev, fp)
			if err != nil {
				return 0, err
			}
			rv, err := r(ev, fp)
			if err != nil {
				return 0, err
			}
			return isa.EvalALU(op, lv, rv), nil
		}
	default:
		panic(fmt.Sprintf("lang: unknown expression %T", e))
	}
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// BinaryOpcode maps a (non-short-circuit) binary operator token to its ISA
// opcode. Shared with the compiler so AST evaluation and compiled execution
// use identical arithmetic.
func BinaryOpcode(op TokKind) isa.Opcode {
	switch op {
	case TokPlus:
		return isa.OpAdd
	case TokMinus:
		return isa.OpSub
	case TokStar:
		return isa.OpMul
	case TokSlash:
		return isa.OpDiv
	case TokPercent:
		return isa.OpRem
	case TokAmp:
		return isa.OpAnd
	case TokPipe:
		return isa.OpOr
	case TokCaret:
		return isa.OpXor
	case TokShl:
		return isa.OpShl
	case TokShr:
		return isa.OpShr
	case TokEq:
		return isa.OpEq
	case TokNe:
		return isa.OpNe
	case TokLt:
		return isa.OpLt
	case TokLe:
		return isa.OpLe
	case TokGt:
		return isa.OpGt
	case TokGe:
		return isa.OpGe
	}
	panic(fmt.Sprintf("lang: token %v is not a binary ALU operator", op))
}

// ParseAndCheck is the front door: lex, parse, and semantically check src.
func ParseAndCheck(src string) (*File, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := Check(f); err != nil {
		return nil, err
	}
	return f, nil
}

// EvalProgram is a convenience wrapper: parse, check, and run src, returning
// the result of main.
func EvalProgram(src string) (int64, error) {
	f, err := ParseAndCheck(src)
	if err != nil {
		return 0, err
	}
	return NewEvaluator(f, 0).Run()
}
