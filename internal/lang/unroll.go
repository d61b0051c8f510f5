package lang

// Unroll rewrites eligible innermost counted loops, replicating the body
// `factor` times with the induction variable substituted (i, i+c, i+2c, ...)
// and a strength-reduced single increment per block, plus a residual loop
// for the tail:
//
//	for var i = A; i < B; i = i + c { BODY }
//	  =>
//	{ var i = A;
//	  while i + (factor-1)*c < B { {BODY} {BODY[i+c]} ... ; i = i + factor*c; }
//	  while i < B { {BODY} i = i + c; } }
//
// This is the k-loop-bounding / unrolling transformation the paper's Alpha
// toolchain applied before translation; on WaveScalar it amortizes the
// per-iteration steer/wave-advance control chain over `factor` bodies (and
// benchmark E11 measures exactly that).
//
// A loop is eligible when: the init clause declares or assigns a scalar
// variable i; the condition is `i < bound` with bound a literal, or a
// variable that is not assigned in the loop while the body contains no
// calls (calls may write globals); the post clause is `i = i + c` with a
// positive literal c; the body contains no break/continue, no inner loops
// (innermost only), no assignment to i, and no shadowing of i.
//
// Unroll returns the number of loops it rewrote: 0 means f is unchanged,
// so whatever is compiled from it equals the factor-1 build.
func Unroll(f *File, factor int) int {
	if factor < 2 {
		return 0
	}
	u := unroller{factor: factor}
	for _, fn := range f.Funcs {
		u.block(fn.Body)
	}
	return u.rewritten
}

type unroller struct {
	factor    int
	rewritten int // loops replaced so far
}

func (u *unroller) block(b *Block) {
	for i, s := range b.Stmts {
		b.Stmts[i] = u.stmt(s)
	}
}

func (u *unroller) stmt(s Stmt) Stmt {
	switch s := s.(type) {
	case *Block:
		u.block(s)
	case *IfStmt:
		u.block(s.Then)
		if s.Else != nil {
			s.Else = u.stmt(s.Else)
		}
	case *WhileStmt:
		u.block(s.Body)
	case *ForStmt:
		u.block(s.Body)
		if out := tryUnrollFor(s, u.factor); out != nil {
			u.rewritten++
			return out
		}
	}
	return s
}

// tryUnrollFor returns the unrolled replacement, or nil if ineligible.
func tryUnrollFor(s *ForStmt, factor int) Stmt {
	// Induction variable from the init clause.
	var ivar string
	switch init := s.Init.(type) {
	case *VarStmt:
		ivar = init.Name
	case *AssignStmt:
		ivar = init.Name
	default:
		return nil
	}
	// Condition i < bound.
	cond, ok := s.Cond.(*BinaryExpr)
	if !ok || cond.Op != TokLt {
		return nil
	}
	lhs, ok := cond.L.(*Ident)
	if !ok || lhs.Name != ivar {
		return nil
	}
	var boundVar string
	switch b := cond.R.(type) {
	case *IntLit:
	case *Ident:
		boundVar = b.Name
	default:
		return nil
	}
	// Post i = i + c, c a positive literal.
	post, ok := s.Post.(*AssignStmt)
	if !ok || post.Name != ivar {
		return nil
	}
	add, ok := post.Val.(*BinaryExpr)
	if !ok || add.Op != TokPlus {
		return nil
	}
	addL, ok := add.L.(*Ident)
	if !ok || addL.Name != ivar {
		return nil
	}
	step, ok := add.R.(*IntLit)
	if !ok || step.Val <= 0 {
		return nil
	}

	insp := inspect(s.Body)
	if insp.hasLoop || insp.hasBreak || insp.assigns[ivar] || insp.declares[ivar] {
		return nil
	}
	if boundVar != "" && (insp.assigns[boundVar] || insp.declares[boundVar] || insp.hasCall) {
		return nil
	}

	c := step.Val
	u := int64(factor)
	pos := s.Pos

	// Guarded main loop: while i + (u-1)*c < bound { copies; i += u*c }.
	main := &WhileStmt{
		Cond: &BinaryExpr{Op: TokLt, Pos: pos,
			L: &BinaryExpr{Op: TokPlus, Pos: pos,
				L: &Ident{Name: ivar, Pos: pos},
				R: &IntLit{Val: (u - 1) * c, Pos: pos}},
			R: cloneExpr(cond.R)},
		Body: &Block{Pos: pos},
		Pos:  pos,
	}
	for k := int64(0); k < u; k++ {
		main.Body.Stmts = append(main.Body.Stmts, cloneBlockSubst(s.Body, ivar, k*c))
	}
	main.Body.Stmts = append(main.Body.Stmts, &AssignStmt{
		Name: ivar, Pos: pos,
		Val: &BinaryExpr{Op: TokPlus, Pos: pos,
			L: &Ident{Name: ivar, Pos: pos},
			R: &IntLit{Val: u * c, Pos: pos}},
	})

	// Residual loop handles the tail iterations.
	resid := &WhileStmt{
		Cond: &BinaryExpr{Op: TokLt, Pos: pos,
			L: &Ident{Name: ivar, Pos: pos}, R: cloneExpr(cond.R)},
		Body: &Block{Pos: pos, Stmts: []Stmt{
			cloneBlockSubst(s.Body, ivar, 0),
			&AssignStmt{Name: ivar, Pos: pos,
				Val: &BinaryExpr{Op: TokPlus, Pos: pos,
					L: &Ident{Name: ivar, Pos: pos}, R: &IntLit{Val: c, Pos: pos}}},
		}},
		Pos: pos,
	}

	return &Block{Pos: pos, Stmts: []Stmt{s.Init, main, resid}}
}

// inspection summarizes properties of a statement subtree.
type inspection struct {
	hasLoop  bool
	hasBreak bool // break or continue
	hasCall  bool
	assigns  map[string]bool
	declares map[string]bool
}

func inspect(b *Block) *inspection {
	in := &inspection{assigns: make(map[string]bool), declares: make(map[string]bool)}
	in.block(b)
	return in
}

func (in *inspection) block(b *Block) {
	for _, s := range b.Stmts {
		in.stmt(s)
	}
}

func (in *inspection) stmt(s Stmt) {
	switch s := s.(type) {
	case *Block:
		in.block(s)
	case *VarStmt:
		in.declares[s.Name] = true
		if s.Init != nil {
			in.expr(s.Init)
		}
	case *AssignStmt:
		in.assigns[s.Name] = true
		in.expr(s.Val)
	case *StoreStmt:
		in.expr(s.Index)
		in.expr(s.Val)
	case *IfStmt:
		in.expr(s.Cond)
		in.block(s.Then)
		if s.Else != nil {
			in.stmt(s.Else)
		}
	case *WhileStmt, *ForStmt:
		in.hasLoop = true
	case *ReturnStmt:
		if s.Val != nil {
			in.expr(s.Val)
		}
	case *BreakStmt, *ContinueStmt:
		in.hasBreak = true
	case *ExprStmt:
		in.expr(s.X)
	}
}

func (in *inspection) expr(e Expr) {
	switch e := e.(type) {
	case *CallExpr:
		in.hasCall = true
		for _, a := range e.Args {
			in.expr(a)
		}
	case *UnaryExpr:
		in.expr(e.X)
	case *BinaryExpr:
		in.expr(e.L)
		in.expr(e.R)
	case *IndexExpr:
		in.expr(e.Index)
	}
}

// cloneBlockSubst deep-copies a block, replacing reads of ivar with
// (ivar + offset); offset 0 still clones (copies must not alias).
func cloneBlockSubst(b *Block, ivar string, offset int64) *Block {
	out := &Block{Pos: b.Pos}
	for _, s := range b.Stmts {
		out.Stmts = append(out.Stmts, cloneStmtSubst(s, ivar, offset))
	}
	return out
}

func cloneStmtSubst(s Stmt, ivar string, off int64) Stmt {
	sub := func(e Expr) Expr { return cloneExprSubst(e, ivar, off) }
	switch s := s.(type) {
	case *Block:
		return cloneBlockSubst(s, ivar, off)
	case *VarStmt:
		n := &VarStmt{Name: s.Name, Pos: s.Pos}
		if s.Init != nil {
			n.Init = sub(s.Init)
		}
		return n
	case *AssignStmt:
		return &AssignStmt{Name: s.Name, Val: sub(s.Val), Pos: s.Pos}
	case *StoreStmt:
		return &StoreStmt{Name: s.Name, Index: sub(s.Index), Val: sub(s.Val), Pos: s.Pos}
	case *IfStmt:
		n := &IfStmt{Cond: sub(s.Cond), Then: cloneBlockSubst(s.Then, ivar, off), Pos: s.Pos}
		if s.Else != nil {
			n.Else = cloneStmtSubst(s.Else, ivar, off)
		}
		return n
	case *ReturnStmt:
		n := &ReturnStmt{Pos: s.Pos}
		if s.Val != nil {
			n.Val = sub(s.Val)
		}
		return n
	case *ExprStmt:
		return &ExprStmt{X: sub(s.X), Pos: s.Pos}
	default:
		// Loops, break, continue were excluded by eligibility.
		panic("lang: cloneStmtSubst on ineligible statement")
	}
}

func cloneExprSubst(e Expr, ivar string, off int64) Expr {
	switch e := e.(type) {
	case *IntLit:
		return &IntLit{Val: e.Val, Pos: e.Pos}
	case *Ident:
		if e.Name == ivar {
			base := &Ident{Name: ivar, Pos: e.Pos}
			if off == 0 {
				return base
			}
			return &BinaryExpr{Op: TokPlus, L: base, R: &IntLit{Val: off, Pos: e.Pos}, Pos: e.Pos}
		}
		return &Ident{Name: e.Name, Pos: e.Pos}
	case *IndexExpr:
		return &IndexExpr{Name: e.Name, Index: cloneExprSubst(e.Index, ivar, off), Pos: e.Pos}
	case *CallExpr:
		n := &CallExpr{Name: e.Name, Pos: e.Pos}
		for _, a := range e.Args {
			n.Args = append(n.Args, cloneExprSubst(a, ivar, off))
		}
		return n
	case *UnaryExpr:
		return &UnaryExpr{Op: e.Op, X: cloneExprSubst(e.X, ivar, off), Pos: e.Pos}
	case *BinaryExpr:
		return &BinaryExpr{Op: e.Op, L: cloneExprSubst(e.L, ivar, off), R: cloneExprSubst(e.R, ivar, off), Pos: e.Pos}
	default:
		panic("lang: unknown expression in clone")
	}
}

// cloneExpr deep-copies an expression without substitution.
func cloneExpr(e Expr) Expr { return cloneExprSubst(e, "", 0) }
