package lang

import (
	"fmt"

	"wavescalar/internal/isa"
)

// Evaluator is the reference tree-walking interpreter for wsl programs. It
// is the first (and simplest) correctness oracle: every other execution
// engine in the repository must produce the same result and final memory
// image as this one.
type Evaluator struct {
	file   *File
	layout *Layout
	funcs  map[string]*FuncDecl
	mem    []int64
	fuel   int64
	vars   []binding // locals of every live activation, innermost last

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
	layout := BuildLayout(f)
	mem := make([]int64, layout.Words)
	for _, g := range f.Globals {
		copy(mem[layout.Addr[g.Name]:], g.Init)
	}
	funcs := make(map[string]*FuncDecl, len(f.Funcs))
	for _, fn := range f.Funcs {
		funcs[fn.Name] = fn
	}
	return &Evaluator{file: f, layout: layout, funcs: funcs, mem: mem, fuel: fuel}
}

// Memory exposes the evaluator's memory image (live; callers may inspect it
// after Run).
func (ev *Evaluator) Memory() []int64 { return ev.mem }

// Run executes main and returns its result.
func (ev *Evaluator) Run() (int64, error) {
	return ev.call(ev.funcs["main"], nil)
}

// control-flow signals carried through the statement walker.
type ctrl uint8

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// binding is one local variable on the evaluator's binding stack.
type binding struct {
	name string
	val  int64
}

// env is a function activation's window on the binding stack: the
// activation's bindings start at base, and a lookup scans from the top of
// the stack down to base, so the innermost declaration of a name wins. A
// scope is a stack mark: a block records the stack height on entry and
// truncates back to it on exit.
type env struct{ base int }

func (ev *Evaluator) declare(name string, v int64) {
	ev.vars = append(ev.vars, binding{name, v})
}

// lookup returns the innermost binding of name in the activation, or nil
// (a global).
func (ev *Evaluator) lookup(en env, name string) *binding {
	for i := len(ev.vars) - 1; i >= en.base; i-- {
		if ev.vars[i].name == name {
			return &ev.vars[i]
		}
	}
	return nil
}

func (ev *Evaluator) call(fn *FuncDecl, args []int64) (int64, error) {
	en := env{base: len(ev.vars)}
	for i, p := range fn.Params {
		ev.declare(p, args[i])
	}
	c, v, err := ev.execBlock(fn.Body, en)
	ev.vars = ev.vars[:en.base]
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

func (ev *Evaluator) execBlock(b *Block, en env) (c ctrl, v int64, err error) {
	mark := len(ev.vars)
	for _, s := range b.Stmts {
		if c, v, err = ev.execStmt(s, en); err != nil || c != ctrlNone {
			break
		}
	}
	ev.vars = ev.vars[:mark]
	return c, v, err
}

func (ev *Evaluator) execStmt(s Stmt, en env) (ctrl, int64, error) {
	if err := ev.step(); err != nil {
		return ctrlNone, 0, err
	}
	switch s := s.(type) {
	case *Block:
		return ev.execBlock(s, en)
	case *VarStmt:
		var v int64
		var err error
		if s.Init != nil {
			if v, err = ev.eval(s.Init, en); err != nil {
				return ctrlNone, 0, err
			}
		}
		ev.declare(s.Name, v)
	case *AssignStmt:
		v, err := ev.eval(s.Val, en)
		if err != nil {
			return ctrlNone, 0, err
		}
		if b := ev.lookup(en, s.Name); b != nil {
			b.val = v
		} else {
			ev.mem[ev.layout.Addr[s.Name]] = v // scalar global
		}
	case *StoreStmt:
		idx, err := ev.eval(s.Index, en)
		if err != nil {
			return ctrlNone, 0, err
		}
		v, err := ev.eval(s.Val, en)
		if err != nil {
			return ctrlNone, 0, err
		}
		addr, aerr := ev.address(s.Name, idx, s.Pos)
		if aerr != nil {
			return ctrlNone, 0, aerr
		}
		ev.mem[addr] = v
	case *IfStmt:
		cond, err := ev.eval(s.Cond, en)
		if err != nil {
			return ctrlNone, 0, err
		}
		if cond != 0 {
			return ev.execBlock(s.Then, en)
		}
		if s.Else != nil {
			return ev.execStmt(s.Else, en)
		}
	case *WhileStmt:
		for {
			cond, err := ev.eval(s.Cond, en)
			if err != nil {
				return ctrlNone, 0, err
			}
			if cond == 0 {
				return ctrlNone, 0, nil
			}
			c, v, err := ev.execBlock(s.Body, en)
			if err != nil {
				return ctrlNone, 0, err
			}
			switch c {
			case ctrlBreak:
				return ctrlNone, 0, nil
			case ctrlReturn:
				return c, v, nil
			}
			if err := ev.step(); err != nil {
				return ctrlNone, 0, err
			}
		}
	case *ForStmt:
		mark := len(ev.vars)
		defer func() { ev.vars = ev.vars[:mark] }()
		if s.Init != nil {
			if c, v, err := ev.execStmt(s.Init, en); err != nil || c != ctrlNone {
				return c, v, err
			}
		}
		for {
			if s.Cond != nil {
				cond, err := ev.eval(s.Cond, en)
				if err != nil {
					return ctrlNone, 0, err
				}
				if cond == 0 {
					return ctrlNone, 0, nil
				}
			}
			c, v, err := ev.execBlock(s.Body, en)
			if err != nil {
				return ctrlNone, 0, err
			}
			switch c {
			case ctrlBreak:
				return ctrlNone, 0, nil
			case ctrlReturn:
				return c, v, nil
			}
			if s.Post != nil {
				if c, v, err := ev.execStmt(s.Post, en); err != nil || c != ctrlNone {
					return c, v, err
				}
			}
			if err := ev.step(); err != nil {
				return ctrlNone, 0, err
			}
		}
	case *ReturnStmt:
		var v int64
		var err error
		if s.Val != nil {
			if v, err = ev.eval(s.Val, en); err != nil {
				return ctrlNone, 0, err
			}
		}
		return ctrlReturn, v, nil
	case *BreakStmt:
		return ctrlBreak, 0, nil
	case *ContinueStmt:
		return ctrlContinue, 0, nil
	case *ExprStmt:
		if _, err := ev.eval(s.X, en); err != nil {
			return ctrlNone, 0, err
		}
	default:
		panic(fmt.Sprintf("lang: unknown statement %T", s))
	}
	return ctrlNone, 0, nil
}

func (ev *Evaluator) address(name string, idx int64, pos Pos) (int64, error) {
	base := ev.layout.Addr[name]
	size := ev.layout.Size[name]
	if idx < 0 || idx >= size {
		return 0, fmt.Errorf("%s: index %d out of range for %q (size %d)", pos, idx, name, size)
	}
	return base + idx, nil
}

func (ev *Evaluator) eval(e Expr, en env) (int64, error) {
	if err := ev.step(); err != nil {
		return 0, err
	}
	switch e := e.(type) {
	case *IntLit:
		return e.Val, nil
	case *Ident:
		if b := ev.lookup(en, e.Name); b != nil {
			return b.val, nil
		}
		return ev.mem[ev.layout.Addr[e.Name]], nil
	case *IndexExpr:
		idx, err := ev.eval(e.Index, en)
		if err != nil {
			return 0, err
		}
		addr, aerr := ev.address(e.Name, idx, e.Pos)
		if aerr != nil {
			return 0, aerr
		}
		return ev.mem[addr], nil
	case *CallExpr:
		args := make([]int64, len(e.Args))
		for i, a := range e.Args {
			v, err := ev.eval(a, en)
			if err != nil {
				return 0, err
			}
			args[i] = v
		}
		return ev.call(ev.funcs[e.Name], args)
	case *UnaryExpr:
		v, err := ev.eval(e.X, en)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case TokMinus:
			return -v, nil
		case TokBang:
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		case TokTilde:
			return ^v, nil
		}
		panic(fmt.Sprintf("lang: unknown unary op %v", e.Op))
	case *BinaryExpr:
		l, err := ev.eval(e.L, en)
		if err != nil {
			return 0, err
		}
		// Short-circuit forms.
		switch e.Op {
		case TokAndAnd:
			if l == 0 {
				return 0, nil
			}
			r, err := ev.eval(e.R, en)
			if err != nil {
				return 0, err
			}
			return boolInt(r != 0), nil
		case TokOrOr:
			if l != 0 {
				return 1, nil
			}
			r, err := ev.eval(e.R, en)
			if err != nil {
				return 0, err
			}
			return boolInt(r != 0), nil
		}
		r, err := ev.eval(e.R, en)
		if err != nil {
			return 0, err
		}
		return isa.EvalALU(BinaryOpcode(e.Op), l, r), nil
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
