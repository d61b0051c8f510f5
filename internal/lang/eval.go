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
//
// Why charging a region's steps at once is exact: a step is one statement
// or expression node, taken in the order a by-name walk visits them. An
// expression with no call and no && or || (a region) visits every node
// once, so its steps are fixed by its text, and it has no effect but its
// value or its first index out of range. A statement charges its own step
// and its region's in one addition, then runs closures that charge
// nothing. An index out of range gives back the steps charged past its
// bounds check, a static count. When the tank cannot hold the whole region
// the region still runs, since it has no effect: an index error it meets
// inside the tank is reported where a step-at-a-time run would meet it, and
// otherwise the run stops at the tank's end, Steps one past it.
type Evaluator struct {
	main  *boundFunc
	mem   []int64
	limit int64   // the most steps a run may take
	vars  []int64 // slots of every live activation, innermost last

	// Steps counts executed statements and expressions, a crude work
	// metric useful for sanity-checking workload sizes. A run that finds
	// the tank empty stops with Steps one past the limit.
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
	// A negative budget runs dry at the first step, as an empty one does.
	return &Evaluator{main: b.funcs["main"], mem: mem, limit: max(fuel, 0)}
}

// Memory exposes the evaluator's memory image (live; callers may inspect it
// after Run).
func (ev *Evaluator) Memory() []int64 { return ev.mem }

// evalError carries a run's error up through the closures: an index out of
// range or an empty tank panics with one, and Run alone recovers it.
type evalError struct{ err error }

// Run executes main and returns its result.
func (ev *Evaluator) Run() (v int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(evalError)
			if !ok {
				panic(r)
			}
			v, err = 0, e.err
		}
	}()
	ev.vars = ev.vars[:0]
	return ev.call(ev.main, ev.frame(ev.main)), nil
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
	boundExpr func(ev *Evaluator, fp int) int64
	boundStmt func(ev *Evaluator, fp int) (ctrl, int64)
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
	left   int64      // steps of the region being bound that come after the node being bound
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

// frame reserves fn's activation at the top of ev.vars and returns its
// base. A slot is written by its parameter or var statement before it is
// read, so reused slots are not cleared.
func (ev *Evaluator) frame(fn *boundFunc) int {
	fp := len(ev.vars)
	if need := fp + fn.frame; need <= cap(ev.vars) {
		ev.vars = ev.vars[:need]
	} else {
		ev.vars = append(ev.vars, make([]int64, fn.frame)...)
	}
	return fp
}

// call runs fn on the activation at fp, whose parameters are in place, and
// gives the activation back.
func (ev *Evaluator) call(fn *boundFunc, fp int) int64 {
	c, v := fn.body(ev, fp)
	ev.vars = ev.vars[:fp]
	if c == ctrlReturn {
		return v
	}
	return 0 // falling off the end returns 0
}

func (ev *Evaluator) step() {
	if ev.Steps++; ev.Steps > ev.limit {
		ev.outOfFuel()
	}
}

func (ev *Evaluator) outOfFuel() {
	ev.Steps = ev.limit + 1
	panic(evalError{ErrOutOfFuel})
}

// A region is an expression with the steps of its statement that come
// before it, charged at once (n) before x runs. x charges nothing when the
// expression's cost is fixed; otherwise n is the statement's steps alone
// and x charges node by node. cut runs instead of x when the tank cannot
// hold n more steps.
type region struct {
	n   int64
	x   boundExpr
	cut *region
}

func (r *region) run(ev *Evaluator, fp int) int64 {
	if ev.Steps += r.n; ev.Steps > ev.limit {
		r = r.cut
	}
	return r.x(ev, fp)
}

// cost is the number of steps e takes when its text fixes it, or -1: a
// call, or && and ||, which may skip their right operand.
func cost(e Expr) int64 {
	var l, r int64
	switch e := e.(type) {
	case *IntLit, *Ident:
	case *IndexExpr:
		l = cost(e.Index)
	case *UnaryExpr:
		l = cost(e.X)
	case *BinaryExpr:
		if l, r = cost(e.L), cost(e.R); e.Op == TokAndAnd || e.Op == TokOrOr {
			return -1
		}
	default:
		return -1
	}
	if l < 0 || r < 0 {
		return -1
	}
	return 1 + l + r
}

// zero is the value of a var or return statement without an expression.
func zero(*Evaluator, int) int64 { return 0 }

// charged binds e (nil: none, value 0) as the region of a statement that
// takes extra steps of its own before evaluating it.
func (b *binder) charged(e Expr, extra int64) region {
	if e == nil {
		return pure(extra, zero)
	}
	if c := cost(e); c >= 0 {
		b.left = c
		return pure(extra+c, b.bare(e))
	}
	return region{extra, b.walk(e), &dry}
}

// dry is the cut of a region whose expression charges its own nodes: the
// statement's own steps are what the tank could not hold.
var dry = region{x: stop}

// pure is the region of an expression that charges nothing. It has no
// effect but its value or an index error, so its cut runs it: an index
// error inside the tank stops the run first.
func pure(n int64, x boundExpr) region {
	return region{n, x, &region{x: func(ev *Evaluator, fp int) int64 {
		x(ev, fp)
		return stop(ev, fp)
	}}}
}

func stop(ev *Evaluator, _ int) int64 {
	ev.outOfFuel()
	return 0
}

// array is an indexed access as bound. after is the steps its region
// charged past the bounds check, given back when the index is out of range.
type array struct {
	base, size, after int64
	name              string
	pos               Pos
}

func (b *binder) array(name string, pos Pos, after int64) *array {
	return &array{b.layout.Addr[name], b.layout.Size[name], after, name, pos}
}

// at returns the address of element idx, or panics as a step-at-a-time run
// stops: with the index error if its bounds check is inside the tank.
func (a *array) at(ev *Evaluator, idx int64) int64 {
	if uint64(idx) >= uint64(a.size) {
		ev.outOfRange(a, idx)
	}
	return a.base + idx
}

func (ev *Evaluator) outOfRange(a *array, idx int64) {
	if ev.Steps -= a.after; ev.Steps > ev.limit {
		ev.outOfFuel()
	}
	panic(evalError{fmt.Errorf("%s: index %d out of range for %q (size %d)", a.pos, idx, a.name, a.size)})
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
	if len(stmts) == 1 {
		return stmts[0]
	}
	return func(ev *Evaluator, fp int) (ctrl, int64) {
		for _, s := range stmts {
			if c, v := s(ev, fp); c != ctrlNone {
				return c, v
			}
		}
		return ctrlNone, 0
	}
}

// stmt binds a statement. Every value is taken into a variable before it
// is stored: a call inside the expression may move ev.vars.
func (b *binder) stmt(s Stmt) boundStmt {
	switch s := s.(type) {
	case *Block:
		body := b.block(s)
		return func(ev *Evaluator, fp int) (ctrl, int64) {
			ev.step()
			return body(ev, fp)
		}
	case *VarStmt:
		// The initializer is bound first: `var x = x + 1` reads the outer x.
		init := b.charged(s.Init, 1)
		slot := b.declare(s.Name)
		return func(ev *Evaluator, fp int) (ctrl, int64) {
			v := init.run(ev, fp)
			ev.vars[fp+slot] = v
			return ctrlNone, 0
		}
	case *AssignStmt:
		val := b.charged(s.Val, 1)
		if slot := b.local(s.Name); slot >= 0 {
			return func(ev *Evaluator, fp int) (ctrl, int64) {
				v := val.run(ev, fp)
				ev.vars[fp+slot] = v
				return ctrlNone, 0
			}
		}
		addr := b.layout.Addr[s.Name] // a scalar global
		return func(ev *Evaluator, fp int) (ctrl, int64) {
			ev.mem[addr] = val.run(ev, fp)
			return ctrlNone, 0
		}
	case *StoreStmt:
		index, val, a := b.charged(s.Index, 1), b.charged(s.Val, 0), b.array(s.Name, s.Pos, 0)
		return func(ev *Evaluator, fp int) (ctrl, int64) {
			idx := index.run(ev, fp)
			v := val.run(ev, fp)
			ev.mem[a.at(ev, idx)] = v
			return ctrlNone, 0
		}
	case *IfStmt:
		cond, then := b.charged(s.Cond, 1), b.block(s.Then)
		var els boundStmt
		if s.Else != nil {
			els = b.stmt(s.Else)
		}
		return func(ev *Evaluator, fp int) (ctrl, int64) {
			if cond.run(ev, fp) != 0 {
				return then(ev, fp)
			}
			if els != nil {
				return els(ev, fp)
			}
			return ctrlNone, 0
		}
	case *WhileStmt:
		return b.loop(nil, s.Cond, nil, s.Body)
	case *ForStmt:
		return b.loop(s.Init, s.Cond, s.Post, s.Body)
	case *ReturnStmt:
		val := b.charged(s.Val, 1)
		return func(ev *Evaluator, fp int) (ctrl, int64) {
			return ctrlReturn, val.run(ev, fp)
		}
	case *BreakStmt:
		return func(ev *Evaluator, fp int) (ctrl, int64) {
			ev.step()
			return ctrlBreak, 0
		}
	case *ContinueStmt:
		return func(ev *Evaluator, fp int) (ctrl, int64) {
			ev.step()
			return ctrlContinue, 0
		}
	case *ExprStmt:
		x := b.charged(s.X, 1)
		return func(ev *Evaluator, fp int) (ctrl, int64) {
			x.run(ev, fp)
			return ctrlNone, 0
		}
	default:
		panic(fmt.Sprintf("lang: unknown statement %T", s))
	}
}

// loop binds a while statement (init and post nil) or a for statement. The
// init clause's variable lives in a scope around the whole loop. One step
// is charged on entry and one after every completed iteration, each fused
// with the test that follows it, except that a for statement's own step
// comes before its init clause.
func (b *binder) loop(initS Stmt, condE Expr, postS Stmt, bodyB *Block) boundStmt {
	mark := len(b.locals)
	var init, post boundStmt
	if initS != nil {
		init = b.stmt(initS)
	}
	test := pure(1, func(*Evaluator, int) int64 { return 1 })
	if condE != nil {
		test = b.charged(condE, 1)
	}
	if postS != nil {
		post = b.stmt(postS)
	}
	body := b.block(bodyB)
	b.locals = b.locals[:mark]
	entry := test
	if init != nil {
		entry.n--
	}
	return func(ev *Evaluator, fp int) (ctrl, int64) {
		if init != nil {
			ev.step()
			if c, v := init(ev, fp); c != ctrlNone {
				return c, v
			}
		}
		for t := &entry; t.run(ev, fp) != 0; t = &test {
			switch c, v := body(ev, fp); c {
			case ctrlBreak:
				return ctrlNone, 0
			case ctrlReturn:
				return c, v
			}
			if post != nil {
				if c, v := post(ev, fp); c != ctrlNone {
					return c, v
				}
			}
		}
		return ctrlNone, 0
	}
}

// walk binds an expression whose cost depends on the run node by node:
// each node charges its own step, and each operand is a region of its own.
func (b *binder) walk(e Expr) boundExpr {
	switch e := e.(type) {
	case *IndexExpr:
		index, a := b.charged(e.Index, 0), b.array(e.Name, e.Pos, 0)
		return func(ev *Evaluator, fp int) int64 {
			ev.step()
			return ev.mem[a.at(ev, index.run(ev, fp))]
		}
	case *CallExpr:
		args := make([]region, len(e.Args))
		for i, a := range e.Args {
			args[i] = b.charged(a, 0)
		}
		fn := b.funcs[e.Name]
		return func(ev *Evaluator, fp int) int64 {
			ev.step()
			// The arguments are evaluated straight into the callee's
			// parameter slots, which are reserved first so that a call
			// inside an argument builds its activation above them.
			callee := ev.frame(fn)
			for i := range args {
				v := args[i].run(ev, fp)
				ev.vars[callee+i] = v
			}
			return ev.call(fn, callee)
		}
	case *UnaryExpr:
		x, op := b.charged(e.X, 0), e.Op
		return func(ev *Evaluator, fp int) int64 {
			ev.step()
			return unary(op, x.run(ev, fp))
		}
	case *BinaryExpr:
		l, r := b.charged(e.L, 0), b.charged(e.R, 0)
		if e.Op == TokAndAnd || e.Op == TokOrOr {
			// Short-circuit forms: the left value that decides the result
			// without the right operand is 0 for &&, nonzero for ||.
			or := e.Op == TokOrOr
			return func(ev *Evaluator, fp int) int64 {
				ev.step()
				if (l.run(ev, fp) != 0) == or {
					return boolInt(or)
				}
				return boolInt(r.run(ev, fp) != 0)
			}
		}
		op := BinaryOpcode(e.Op)
		return func(ev *Evaluator, fp int) int64 {
			ev.step()
			lv := l.run(ev, fp)
			return isa.EvalALU(op, lv, r.run(ev, fp))
		}
	default:
		panic(fmt.Sprintf("lang: unknown expression %T", e))
	}
}

// bare binds an expression of fixed cost to charge nothing, its region
// having charged it. b.left counts the region's steps down in the order a
// step-at-a-time run takes them. Binary operations on locals and literals
// and a[local] reads have closures of their own.
func (b *binder) bare(e Expr) boundExpr {
	b.left--
	switch e := e.(type) {
	case *IntLit:
		v := e.Val
		return func(*Evaluator, int) int64 { return v }
	case *Ident:
		if slot := b.local(e.Name); slot >= 0 {
			return func(ev *Evaluator, fp int) int64 { return ev.vars[fp+slot] }
		}
		addr := b.layout.Addr[e.Name]
		return func(ev *Evaluator, fp int) int64 { return ev.mem[addr] }
	case *IndexExpr:
		if slot, _ := b.leaf(e.Index); slot >= 0 {
			b.left--
			a := b.array(e.Name, e.Pos, b.left)
			return func(ev *Evaluator, fp int) int64 { return ev.mem[a.at(ev, ev.vars[fp+slot])] }
		}
		index := b.bare(e.Index)
		a := b.array(e.Name, e.Pos, b.left)
		return func(ev *Evaluator, fp int) int64 { return ev.mem[a.at(ev, index(ev, fp))] }
	case *UnaryExpr:
		x, op := b.bare(e.X), e.Op
		return func(ev *Evaluator, fp int) int64 { return unary(op, x(ev, fp)) }
	case *BinaryExpr:
		op := BinaryOpcode(e.Op)
		ls, _ := b.leaf(e.L)
		rs, rv := b.leaf(e.R)
		switch {
		case ls >= 0 && rs >= 0:
			b.left -= 2
			return func(ev *Evaluator, fp int) int64 { return isa.EvalALU(op, ev.vars[fp+ls], ev.vars[fp+rs]) }
		case ls >= 0 && rs == literal:
			b.left -= 2
			switch op {
			case isa.OpAdd:
				return func(ev *Evaluator, fp int) int64 { return ev.vars[fp+ls] + rv }
			case isa.OpLt:
				return func(ev *Evaluator, fp int) int64 { return boolInt(ev.vars[fp+ls] < rv) }
			}
			return func(ev *Evaluator, fp int) int64 { return isa.EvalALU(op, ev.vars[fp+ls], rv) }
		}
		l, r := b.bare(e.L), b.bare(e.R)
		return func(ev *Evaluator, fp int) int64 { return isa.EvalALU(op, l(ev, fp), r(ev, fp)) }
	default:
		panic(fmt.Sprintf("lang: unknown expression %T", e))
	}
}

// literal is leaf's slot for an integer literal.
const literal = -2

// leaf returns the slot of a local, or literal and the value of a literal,
// or -1 for any other operand.
func (b *binder) leaf(e Expr) (slot int, v int64) {
	switch e := e.(type) {
	case *Ident:
		return b.local(e.Name), 0
	case *IntLit:
		return literal, e.Val
	}
	return -1, 0
}

func unary(op TokKind, v int64) int64 {
	switch op {
	case TokMinus:
		return -v
	case TokBang:
		return boolInt(v == 0)
	case TokTilde:
		return ^v
	}
	panic(fmt.Sprintf("lang: unknown unary op %v", op))
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
