package testprogs

import (
	"fmt"
	"math/rand"
	"strings"

	"wavescalar/internal/lang"
)

// The random program generator's bounds: small but structurally rich
// programs. GenerateWith takes the one a caller varies, the statements per
// block.
const (
	genMaxFuncs     = 3 // besides main
	genMaxGlobals   = 3
	genMaxArraySize = 16
	genMaxStmts     = 4 // per block, in Generate
	genMaxDepth     = 2 // statement nesting
	genMaxExprDepth = 3
)

// Generate produces a random, well-formed wsl program. Programs always
// terminate: every loop is a bounded counted loop, and recursion is
// excluded by only calling previously generated functions. Array indexes
// are masked into range with %, so no engine faults on bounds.
//
// The generator is the engine of the differential fuzz tests: every
// generated program must produce identical results on the AST evaluator,
// the linear emulator and every engine of the harness's differential table.
func Generate(seed int64) string {
	return GenerateWith(seed, genMaxStmts)
}

// GenerateWith generates with at most maxStmts statements per block.
func GenerateWith(seed int64, maxStmts int) string {
	g := &gen{rng: rand.New(rand.NewSource(seed)), maxStmts: maxStmts}
	return g.program()
}

type gen struct {
	rng      *rand.Rand
	maxStmts int
	b        strings.Builder

	globals []genGlobal // name + size
	funcs   []genFunc
	indent  int

	// vars is the scope stack of visible local variables.
	vars [][]string
	// loopVars are induction variables that must not be reassigned (so the
	// loops stay bounded).
	loopVars map[string]bool
	nextVar  int
}

type genGlobal struct {
	name string
	size int64
}

type genFunc struct {
	name   string
	params int
}

func (g *gen) program() string {
	nGlobals := 1 + g.rng.Intn(genMaxGlobals)
	for i := 0; i < nGlobals; i++ {
		size := int64(1)
		if g.rng.Intn(2) == 0 {
			size = 2 + g.rng.Int63n(genMaxArraySize-1)
		}
		gl := genGlobal{name: fmt.Sprintf("g%d", i), size: size}
		g.globals = append(g.globals, gl)
		if size == 1 {
			fmt.Fprintf(&g.b, "global %s = %d;\n", gl.name, g.rng.Intn(100))
		} else {
			fmt.Fprintf(&g.b, "global %s[%d];\n", gl.name, size)
		}
	}

	nFuncs := g.rng.Intn(genMaxFuncs + 1)
	for i := 0; i < nFuncs; i++ {
		g.fn(fmt.Sprintf("f%d", i), 1+g.rng.Intn(3))
	}
	g.fn("main", 0)
	return g.b.String()
}

func (g *gen) fn(name string, params int) {
	g.loopVars = make(map[string]bool)
	g.vars = nil
	g.pushScope()
	var ps []string
	for i := 0; i < params; i++ {
		p := fmt.Sprintf("p%d", i)
		ps = append(ps, p)
		g.declare(p)
	}
	fmt.Fprintf(&g.b, "func %s(%s) {\n", name, strings.Join(ps, ", "))
	g.indent = 1
	g.block(genMaxDepth)
	g.line("return %s;", g.expr(genMaxExprDepth))
	g.b.WriteString("}\n")
	g.popScope()
	g.funcs = append(g.funcs, genFunc{name: name, params: params})
}

func (g *gen) pushScope() { g.vars = append(g.vars, nil) }
func (g *gen) popScope()  { g.vars = g.vars[:len(g.vars)-1] }

func (g *gen) declare(name string) {
	g.vars[len(g.vars)-1] = append(g.vars[len(g.vars)-1], name)
}

func (g *gen) freshVar() string {
	v := fmt.Sprintf("v%d", g.nextVar)
	g.nextVar++
	return v
}

func (g *gen) visibleVars() []string {
	var out []string
	for _, scope := range g.vars {
		out = append(out, scope...)
	}
	return out
}

// assignableVars excludes loop induction variables.
func (g *gen) assignableVars() []string {
	var out []string
	for _, v := range g.visibleVars() {
		if !g.loopVars[v] {
			out = append(out, v)
		}
	}
	return out
}

func (g *gen) line(format string, args ...any) {
	g.b.WriteString(strings.Repeat("\t", g.indent))
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

func (g *gen) block(depth int) {
	n := 1 + g.rng.Intn(g.maxStmts)
	for i := 0; i < n; i++ {
		g.stmt(depth)
	}
}

func (g *gen) stmt(depth int) {
	choices := 6
	if depth <= 0 {
		choices = 3 // only flat statements
	}
	switch g.rng.Intn(choices) {
	case 0: // var decl
		v := g.freshVar()
		g.line("var %s = %s;", v, g.expr(genMaxExprDepth))
		g.declare(v)
	case 1: // assignment (var or scalar global or array store)
		g.assignStmt()
	case 2: // expression statement (call if possible, else assignment)
		if len(g.funcs) > 0 && g.rng.Intn(2) == 0 {
			g.line("%s;", g.call())
		} else {
			g.assignStmt()
		}
	case 3: // if / if-else
		g.line("if %s {", g.expr(2))
		g.indent++
		g.pushScope()
		g.block(depth - 1)
		g.popScope()
		g.indent--
		if g.rng.Intn(2) == 0 {
			g.line("} else {")
			g.indent++
			g.pushScope()
			g.block(depth - 1)
			g.popScope()
			g.indent--
		}
		g.line("}")
	case 4: // bounded for loop
		iv := g.freshVar()
		bound := 1 + g.rng.Intn(5)
		step := 1 + g.rng.Intn(2)
		g.line("for var %s = 0; %s < %d; %s = %s + %d {", iv, iv, bound, iv, iv, step)
		g.indent++
		g.pushScope()
		g.declare(iv)
		g.loopVars[iv] = true
		g.block(depth - 1)
		// Occasional break/continue guarded by the induction variable.
		if g.rng.Intn(4) == 0 {
			kw := "break"
			if g.rng.Intn(2) == 0 {
				kw = "continue"
			}
			g.line("if %s == %d { %s; }", iv, g.rng.Intn(bound), kw)
		}
		g.popScope()
		delete(g.loopVars, iv)
		g.indent--
		g.line("}")
	case 5: // bounded while loop (explicit counter)
		iv := g.freshVar()
		bound := 1 + g.rng.Intn(6)
		g.line("var %s = 0;", iv)
		g.declare(iv)
		g.loopVars[iv] = true
		g.line("while %s < %d {", iv, bound)
		g.indent++
		g.pushScope()
		g.block(depth - 1)
		g.popScope()
		g.loopVars[iv] = false
		g.line("%s = %s + 1;", iv, iv)
		g.indent--
		g.line("}")
		g.loopVars[iv] = true // stays unassignable afterwards (harmless)
	}
}

func (g *gen) assignStmt() {
	vars := g.assignableVars()
	arrays := g.arrays()
	switch {
	case len(arrays) > 0 && g.rng.Intn(3) == 0:
		a := arrays[g.rng.Intn(len(arrays))]
		g.line("%s[%s] = %s;", a.name, g.index(a), g.expr(genMaxExprDepth))
	case len(vars) > 0 && g.rng.Intn(4) != 0:
		v := vars[g.rng.Intn(len(vars))]
		g.line("%s = %s;", v, g.expr(genMaxExprDepth))
	default:
		if sc := g.scalars(); len(sc) > 0 {
			s := sc[g.rng.Intn(len(sc))]
			g.line("%s = %s;", s.name, g.expr(genMaxExprDepth))
			return
		}
		v := g.freshVar()
		g.line("var %s = %s;", v, g.expr(2))
		g.declare(v)
	}
}

func (g *gen) arrays() []genGlobal {
	var out []genGlobal
	for _, gl := range g.globals {
		if gl.size > 1 {
			out = append(out, gl)
		}
	}
	return out
}

func (g *gen) scalars() []genGlobal {
	var out []genGlobal
	for _, gl := range g.globals {
		if gl.size == 1 {
			out = append(out, gl)
		}
	}
	return out
}

// index produces an always-in-range index expression: (expr % size + size) % size
// folded to a simpler non-negative form.
func (g *gen) index(a genGlobal) string {
	e := g.expr(2)
	// ((e) % size + size) % size is safely in [0, size).
	return fmt.Sprintf("(((%s) %% %d) + %d) %% %d", e, a.size, a.size, a.size)
}

var binOps = []string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
	"==", "!=", "<", "<=", ">", ">=", "&&", "||"}

func (g *gen) expr(depth int) string {
	if depth <= 0 {
		return g.atom()
	}
	switch g.rng.Intn(6) {
	case 0:
		return g.atom()
	case 1:
		op := []string{"-", "!", "~"}[g.rng.Intn(3)]
		return fmt.Sprintf("%s(%s)", op, g.expr(depth-1))
	case 2:
		if len(g.funcs) > 0 {
			return g.call()
		}
		return g.atom()
	case 3:
		if arrays := g.arrays(); len(arrays) > 0 {
			a := arrays[g.rng.Intn(len(arrays))]
			return fmt.Sprintf("%s[%s]", a.name, g.index(a))
		}
		return g.atom()
	default:
		op := binOps[g.rng.Intn(len(binOps))]
		l := g.expr(depth - 1)
		r := g.expr(depth - 1)
		if op == "<<" || op == ">>" {
			// Keep shift counts small so values stay comparable across
			// engines (they would anyway, but smaller magnitudes make
			// failures readable).
			r = fmt.Sprintf("(%s & 7)", g.atom())
		}
		return fmt.Sprintf("(%s %s %s)", l, op, r)
	}
}

func (g *gen) atom() string {
	vars := g.visibleVars()
	switch {
	case len(vars) > 0 && g.rng.Intn(2) == 0:
		return vars[g.rng.Intn(len(vars))]
	case len(g.scalars()) > 0 && g.rng.Intn(3) == 0:
		sc := g.scalars()
		return sc[g.rng.Intn(len(sc))].name
	default:
		return fmt.Sprintf("%d", g.rng.Intn(200)-100)
	}
}

// call invokes a previously generated function (no recursion, so programs
// terminate).
func (g *gen) call() string {
	f := g.funcs[g.rng.Intn(len(g.funcs))]
	args := make([]string, f.params)
	for i := range args {
		args[i] = g.expr(1)
	}
	return fmt.Sprintf("%s(%s)", f.name, strings.Join(args, ", "))
}

// TerminatesWithin reports whether the program parses, checks, and
// finishes within maxSteps evaluator steps; fuzz harnesses use it to
// filter out the rare generated program whose nested loops compound into
// an impractically long run.
func TerminatesWithin(src string, maxSteps int64) bool {
	f, err := lang.ParseAndCheck(src)
	if err != nil {
		return false
	}
	_, err = lang.NewEvaluator(f, maxSteps).Run()
	return err == nil
}
