package lang

import (
	"fmt"

	"wavescalar/internal/isa"
)

// Layout assigns every global an address in the flat 64-bit-word address
// space. It is shared by the evaluator and by both compiler backends so all
// engines agree on the data segment.
type Layout struct {
	Addr  map[string]int64
	Size  map[string]int64
	Words int64 // total memory size
}

// BuildLayout places globals consecutively from address 0.
func BuildLayout(f *File) *Layout {
	l := &Layout{Addr: make(map[string]int64), Size: make(map[string]int64)}
	for _, g := range f.Globals {
		l.Addr[g.Name] = l.Words
		l.Size[g.Name] = g.Size
		l.Words += g.Size
	}
	if l.Words == 0 {
		l.Words = 1 // engines want a non-empty address space
	}
	return l
}

// checker validates name resolution, arity, and statement placement.
type checker struct {
	file    *File
	globals map[string]*GlobalDecl
	funcs   map[string]*FuncDecl
	errs    []error
}

// Check performs semantic analysis on a parsed file. The returned error is
// the first problem found (all problems are collected internally).
func Check(f *File) error {
	c := &checker{
		file:    f,
		globals: make(map[string]*GlobalDecl),
		funcs:   make(map[string]*FuncDecl),
	}
	for _, g := range f.Globals {
		if _, dup := c.globals[g.Name]; dup {
			c.errorf(g.Pos, "global %q redeclared", g.Name)
			continue
		}
		c.globals[g.Name] = g
	}
	// BuildLayout places every global, so every one counts. The sum stays
	// within [0, isa.MaxMemWords] while it is compared, so it cannot
	// overflow whatever a size is.
	words := int64(0)
	for _, g := range f.Globals {
		if g.Size > isa.MaxMemWords-words {
			c.errorf(g.Pos, "global %q (%d words) puts the data segment over %d words", g.Name, g.Size, isa.MaxMemWords)
			break
		}
		words += g.Size
	}
	for _, fn := range f.Funcs {
		if _, dup := c.funcs[fn.Name]; dup {
			c.errorf(fn.Pos, "function %q redeclared", fn.Name)
			continue
		}
		if _, clash := c.globals[fn.Name]; clash {
			c.errorf(fn.Pos, "function %q collides with a global", fn.Name)
		}
		c.funcs[fn.Name] = fn
	}
	main, ok := c.funcs["main"]
	if !ok {
		c.errorf(Pos{1, 1}, "program has no 'main' function")
	} else if len(main.Params) != 0 {
		c.errorf(main.Pos, "'main' must take no parameters")
	}
	for _, fn := range f.Funcs {
		c.checkFunc(fn)
	}
	if len(c.errs) > 0 {
		return c.errs[0]
	}
	return nil
}

func (c *checker) errorf(pos Pos, format string, args ...any) {
	c.errs = append(c.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

// scope is a stack of lexical variable scopes.
type scope struct {
	vars   []map[string]bool
	parent *FuncDecl
}

func (s *scope) push() { s.vars = append(s.vars, make(map[string]bool)) }
func (s *scope) pop()  { s.vars = s.vars[:len(s.vars)-1] }

func (s *scope) declare(name string) bool {
	top := s.vars[len(s.vars)-1]
	if top[name] {
		return false
	}
	top[name] = true
	return true
}

func (s *scope) lookup(name string) bool {
	for i := len(s.vars) - 1; i >= 0; i-- {
		if s.vars[i][name] {
			return true
		}
	}
	return false
}

func (c *checker) checkFunc(fn *FuncDecl) {
	sc := &scope{parent: fn}
	sc.push()
	for _, p := range fn.Params {
		if !sc.declare(p) {
			c.errorf(fn.Pos, "parameter %q repeated in %q", p, fn.Name)
		}
	}
	c.checkBlock(fn.Body, sc, 0)
}

func (c *checker) checkBlock(b *Block, sc *scope, loopDepth int) {
	sc.push()
	defer sc.pop()
	for _, s := range b.Stmts {
		c.checkStmt(s, sc, loopDepth)
	}
}

func (c *checker) checkStmt(s Stmt, sc *scope, loopDepth int) {
	switch s := s.(type) {
	case *Block:
		c.checkBlock(s, sc, loopDepth)
	case *VarStmt:
		if s.Init != nil {
			c.checkExpr(s.Init, sc)
		}
		if !sc.declare(s.Name) {
			c.errorf(s.Pos, "variable %q redeclared in this scope", s.Name)
		}
	case *AssignStmt:
		c.checkExpr(s.Val, sc)
		if sc.lookup(s.Name) {
			return
		}
		if g, ok := c.globals[s.Name]; ok {
			if g.Size != 1 {
				c.errorf(s.Pos, "global array %q assigned without an index", s.Name)
			}
			return
		}
		c.errorf(s.Pos, "assignment to undeclared variable %q", s.Name)
	case *StoreStmt:
		c.checkExpr(s.Index, sc)
		c.checkExpr(s.Val, sc)
		if _, ok := c.globals[s.Name]; !ok {
			c.errorf(s.Pos, "store to %q, which is not a global array", s.Name)
		} else if sc.lookup(s.Name) {
			c.errorf(s.Pos, "store to %q is shadowed by a local variable", s.Name)
		}
	case *IfStmt:
		c.checkExpr(s.Cond, sc)
		c.checkBlock(s.Then, sc, loopDepth)
		if s.Else != nil {
			c.checkStmt(s.Else, sc, loopDepth)
		}
	case *WhileStmt:
		c.checkExpr(s.Cond, sc)
		c.checkBlock(s.Body, sc, loopDepth+1)
	case *ForStmt:
		sc.push()
		defer sc.pop()
		if s.Init != nil {
			c.checkStmt(s.Init, sc, loopDepth)
		}
		if s.Cond != nil {
			c.checkExpr(s.Cond, sc)
		}
		if s.Post != nil {
			if _, isVar := s.Post.(*VarStmt); isVar {
				c.errorf(s.Pos, "for-loop post clause cannot declare a variable")
			}
			c.checkStmt(s.Post, sc, loopDepth)
		}
		c.checkBlock(s.Body, sc, loopDepth+1)
	case *ReturnStmt:
		if s.Val != nil {
			c.checkExpr(s.Val, sc)
		}
	case *BreakStmt:
		if loopDepth == 0 {
			c.errorf(s.Pos, "break outside a loop")
		}
	case *ContinueStmt:
		if loopDepth == 0 {
			c.errorf(s.Pos, "continue outside a loop")
		}
	case *ExprStmt:
		c.checkExpr(s.X, sc)
	default:
		panic(fmt.Sprintf("lang: unknown statement %T", s))
	}
}

func (c *checker) checkExpr(e Expr, sc *scope) {
	switch e := e.(type) {
	case *IntLit:
	case *Ident:
		if sc.lookup(e.Name) {
			return
		}
		if g, ok := c.globals[e.Name]; ok {
			if g.Size != 1 {
				c.errorf(e.Pos, "global array %q read without an index", e.Name)
			}
			return
		}
		c.errorf(e.Pos, "undeclared variable %q", e.Name)
	case *IndexExpr:
		c.checkExpr(e.Index, sc)
		if _, ok := c.globals[e.Name]; !ok {
			c.errorf(e.Pos, "index of %q, which is not a global array", e.Name)
		} else if sc.lookup(e.Name) {
			c.errorf(e.Pos, "index of %q is shadowed by a local variable", e.Name)
		}
	case *CallExpr:
		fn, ok := c.funcs[e.Name]
		if !ok {
			c.errorf(e.Pos, "call to undeclared function %q", e.Name)
		} else if len(e.Args) != len(fn.Params) {
			c.errorf(e.Pos, "call to %q with %d arguments, want %d", e.Name, len(e.Args), len(fn.Params))
		}
		for _, a := range e.Args {
			c.checkExpr(a, sc)
		}
	case *UnaryExpr:
		c.checkExpr(e.X, sc)
	case *BinaryExpr:
		c.checkExpr(e.L, sc)
		c.checkExpr(e.R, sc)
	default:
		panic(fmt.Sprintf("lang: unknown expression %T", e))
	}
}
