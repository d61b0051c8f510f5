package lang_test

import (
	"fmt"

	"wavescalar/internal/isa"
	"wavescalar/internal/lang"
)

// refEvaluator is the evaluator as first written, kept as the reference the
// bound one (eval.go) is held to: it resolves every name at every access,
// scanning a stack of (name, value) bindings for a local and hashing the
// layout maps for a global. Slower, and obviously the language's scoping
// rule; TestEvaluatorMatchesByNameReference compares the two.
type refEvaluator struct {
	file   *lang.File
	layout *lang.Layout
	funcs  map[string]*lang.FuncDecl
	mem    []int64
	fuel   int64
	vars   []binding // locals of every live activation, innermost last

	Steps int64
}

func newRefEvaluator(f *lang.File, fuel int64) *refEvaluator {
	if fuel == 0 {
		fuel = 500_000_000
	}
	layout := lang.BuildLayout(f)
	mem := make([]int64, layout.Words)
	for _, g := range f.Globals {
		copy(mem[layout.Addr[g.Name]:], g.Init)
	}
	funcs := make(map[string]*lang.FuncDecl, len(f.Funcs))
	for _, fn := range f.Funcs {
		funcs[fn.Name] = fn
	}
	return &refEvaluator{file: f, layout: layout, funcs: funcs, mem: mem, fuel: fuel}
}

// Memory exposes the evaluator's memory image (live; callers may inspect it
// after Run).
func (ev *refEvaluator) Memory() []int64 { return ev.mem }

// Run executes main and returns its result.
func (ev *refEvaluator) Run() (int64, error) {
	return ev.call(ev.funcs["main"], nil)
}

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

func (ev *refEvaluator) declare(name string, v int64) {
	ev.vars = append(ev.vars, binding{name, v})
}

// lookup returns the innermost binding of name in the activation, or nil
// (a global).
func (ev *refEvaluator) lookup(en env, name string) *binding {
	for i := len(ev.vars) - 1; i >= en.base; i-- {
		if ev.vars[i].name == name {
			return &ev.vars[i]
		}
	}
	return nil
}

func (ev *refEvaluator) call(fn *lang.FuncDecl, args []int64) (int64, error) {
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

func (ev *refEvaluator) step() error {
	ev.Steps++
	ev.fuel--
	if ev.fuel < 0 {
		return lang.ErrOutOfFuel
	}
	return nil
}

func (ev *refEvaluator) execBlock(b *lang.Block, en env) (c ctrl, v int64, err error) {
	mark := len(ev.vars)
	for _, s := range b.Stmts {
		if c, v, err = ev.execStmt(s, en); err != nil || c != ctrlNone {
			break
		}
	}
	ev.vars = ev.vars[:mark]
	return c, v, err
}

func (ev *refEvaluator) execStmt(s lang.Stmt, en env) (ctrl, int64, error) {
	if err := ev.step(); err != nil {
		return ctrlNone, 0, err
	}
	switch s := s.(type) {
	case *lang.Block:
		return ev.execBlock(s, en)
	case *lang.VarStmt:
		var v int64
		var err error
		if s.Init != nil {
			if v, err = ev.eval(s.Init, en); err != nil {
				return ctrlNone, 0, err
			}
		}
		ev.declare(s.Name, v)
	case *lang.AssignStmt:
		v, err := ev.eval(s.Val, en)
		if err != nil {
			return ctrlNone, 0, err
		}
		if b := ev.lookup(en, s.Name); b != nil {
			b.val = v
		} else {
			ev.mem[ev.layout.Addr[s.Name]] = v // scalar global
		}
	case *lang.StoreStmt:
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
	case *lang.IfStmt:
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
	case *lang.WhileStmt:
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
	case *lang.ForStmt:
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
	case *lang.ReturnStmt:
		var v int64
		var err error
		if s.Val != nil {
			if v, err = ev.eval(s.Val, en); err != nil {
				return ctrlNone, 0, err
			}
		}
		return ctrlReturn, v, nil
	case *lang.BreakStmt:
		return ctrlBreak, 0, nil
	case *lang.ContinueStmt:
		return ctrlContinue, 0, nil
	case *lang.ExprStmt:
		if _, err := ev.eval(s.X, en); err != nil {
			return ctrlNone, 0, err
		}
	default:
		panic(fmt.Sprintf("lang: unknown statement %T", s))
	}
	return ctrlNone, 0, nil
}

func (ev *refEvaluator) address(name string, idx int64, pos lang.Pos) (int64, error) {
	base := ev.layout.Addr[name]
	size := ev.layout.Size[name]
	if idx < 0 || idx >= size {
		return 0, fmt.Errorf("%s: index %d out of range for %q (size %d)", pos, idx, name, size)
	}
	return base + idx, nil
}

func (ev *refEvaluator) eval(e lang.Expr, en env) (int64, error) {
	if err := ev.step(); err != nil {
		return 0, err
	}
	switch e := e.(type) {
	case *lang.IntLit:
		return e.Val, nil
	case *lang.Ident:
		if b := ev.lookup(en, e.Name); b != nil {
			return b.val, nil
		}
		return ev.mem[ev.layout.Addr[e.Name]], nil
	case *lang.IndexExpr:
		idx, err := ev.eval(e.Index, en)
		if err != nil {
			return 0, err
		}
		addr, aerr := ev.address(e.Name, idx, e.Pos)
		if aerr != nil {
			return 0, aerr
		}
		return ev.mem[addr], nil
	case *lang.CallExpr:
		args := make([]int64, len(e.Args))
		for i, a := range e.Args {
			v, err := ev.eval(a, en)
			if err != nil {
				return 0, err
			}
			args[i] = v
		}
		return ev.call(ev.funcs[e.Name], args)
	case *lang.UnaryExpr:
		v, err := ev.eval(e.X, en)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case lang.TokMinus:
			return -v, nil
		case lang.TokBang:
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		case lang.TokTilde:
			return ^v, nil
		}
		panic(fmt.Sprintf("lang: unknown unary op %v", e.Op))
	case *lang.BinaryExpr:
		l, err := ev.eval(e.L, en)
		if err != nil {
			return 0, err
		}
		// Short-circuit forms.
		switch e.Op {
		case lang.TokAndAnd:
			if l == 0 {
				return 0, nil
			}
			r, err := ev.eval(e.R, en)
			if err != nil {
				return 0, err
			}
			return boolInt(r != 0), nil
		case lang.TokOrOr:
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
		return isa.EvalALU(lang.BinaryOpcode(e.Op), l, r), nil
	default:
		panic(fmt.Sprintf("lang: unknown expression %T", e))
	}
}

// ctrl and boolInt are eval.go's, which this package cannot see.
type ctrl uint8

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
