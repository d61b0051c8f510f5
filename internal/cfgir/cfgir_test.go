package cfgir

import (
	"reflect"
	"testing"

	"wavescalar/internal/isa"
	"wavescalar/internal/lang"
)

// differentialCases mirror (and extend) the lang evaluator cases: the IR
// interpreter must agree with the AST evaluator on every one, both with and
// without optimization.
var differentialCases = []string{
	`func main() { return 42; }`,
	`func main() { return (2 + 3) * 4 - 10 / 3; }`,
	`func main() { return -(3) + !0 + !7 + ~0; }`,
	`func main() { var s = 0; var i = 0; while i < 10 { s = s + i; i = i + 1; } return s; }`,
	`func main() { var s = 0; for var i = 1; i <= 100; i = i + 1 { s = s + i; } return s; }`,
	`func main() { var s = 0; for var i = 0; i < 5; i = i + 1 { for var j = 0; j < 5; j = j + 1 { s = s + i * j; } } return s; }`,
	`func main() { var i = 0; while 1 { if i >= 7 { break; } i = i + 1; } return i; }`,
	`func main() { var s = 0; for var i = 0; i < 10; i = i + 1 { if i % 2 { continue; } s = s + i; } return s; }`,
	"global g = 5;\nfunc main() { g = g + 1; return g * 2; }",
	"global a[10];\nfunc main() { for var i = 0; i < 10; i = i + 1 { a[i] = i * i; } var s = 0; for var i = 0; i < 10; i = i + 1 { s = s + a[i]; } return s; }",
	"global a[4] = {10, 20, 30};\nfunc main() { return a[0] + a[1] + a[2] + a[3]; }",
	`func double(x) { return x * 2; } func main() { return double(21); }`,
	`func fib(n) { if n < 2 { return n; } return fib(n-1) + fib(n-2); } func main() { return fib(12); }`,
	"global seen[20];\nfunc fact(n) { seen[n] = 1; if n <= 1 { return 1; } return n * fact(n - 1); }\nfunc main() { var f = fact(6); var c = 0; for var i = 0; i < 20; i = i + 1 { c = c + seen[i]; } return f + c; }",
	"global g;\nfunc bump() { g = g + 1; return 0; }\nfunc main() { var x = 0 && bump(); return g * 10 + x; }",
	"global g;\nfunc bump() { g = g + 1; return 1; }\nfunc main() { var x = 1 || bump(); return g * 10 + x; }",
	"global g;\nfunc bump() { g = g + 1; return 5; }\nfunc main() { var x = 1 && bump(); return g * 10 + x; }",
	`func main() { var x = 1; { var x = 2; x = 3; } return x; }`,
	"global a[4];\nfunc main() { a[0] = 1; a[1] = a[0] + 1; a[0] = a[1] + 1; return a[0] * 10 + a[1]; }",
	`func gcd(a, b) { while b != 0 { var t = b; b = a % b; a = t; } return a; } func main() { return gcd(1071, 462); }`,
	`func main() { var n = 27; var steps = 0; while n != 1 { if n % 2 { n = 3 * n + 1; } else { n = n / 2; } steps = steps + 1; } return steps; }`,
	`func main() { var x = 5; if x < 3 { return 1; } else if x < 7 { return 2; } else { return 3; } }`,
	// Dead join after both-return if.
	`func main() { if 1 { return 4; } else { return 5; } }`,
	// Constant-foldable control flow.
	`func main() { var s = 0; if 2 > 1 { s = 10; } if 1 > 2 { s = s + 100; } return s + 3 * 0 + 0 * 9 + (7 + 0); }`,
	// CSE fodder: repeated loads and expressions.
	"global a[8] = {3, 1, 4, 1, 5, 9, 2, 6};\nfunc main() { var s = a[2] + a[2] + a[2]; a[2] = 100; s = s + a[2] + a[2]; return s; }",
	// Expression statement calls for side effects.
	"global g;\nfunc inc() { g = g + 1; return g; }\nfunc main() { inc(); inc(); inc(); return g; }",
	// x = x self-assignment.
	`func main() { var x = 9; x = x; return x; }`,
	// Multiply-assigned register across redefinition (CSE hazard).
	`func main() { var v = 2 + 3; var w = v; v = 9; var u = 2 + 3; return v * 100 + w * 10 + u; }`,
	// || and && producing 0/1 from arbitrary ints.
	`func main() { return (5 || 0) + (0 || 7) * 10 + (3 && 4) * 100 + (0 && 9) * 1000; }`,
}

func compile(t *testing.T, src string, optimize bool) *Program {
	t.Helper()
	f, err := lang.ParseAndCheck(src)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	p, err := Build(f)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	for _, fn := range p.Funcs {
		fn.Compact()
	}
	if optimize {
		p.Optimize()
	}
	return p
}

func TestInterpMatchesEvaluator(t *testing.T) {
	for _, src := range differentialCases {
		want, err := lang.EvalProgram(src)
		if err != nil {
			t.Fatalf("evaluator failed on %q: %v", src, err)
		}
		for _, optimize := range []bool{false, true} {
			p := compile(t, src, optimize)
			got, err := NewInterp(p, 0).Run()
			if err != nil {
				t.Errorf("opt=%v: interp error on %q: %v\n%s", optimize, src, err, p)
				continue
			}
			if got != want {
				t.Errorf("opt=%v: %q: interp=%d evaluator=%d\n%s", optimize, src, got, want, p)
			}
		}
	}
}

func TestMemoryImagesAgree(t *testing.T) {
	src := "global a[16];\nglobal b = 3;\nfunc main() { for var i = 0; i < 16; i = i + 1 { a[i] = i * b; } b = 99; return 0; }"
	f, err := lang.ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	ev := lang.NewEvaluator(f, 0)
	if _, err := ev.Run(); err != nil {
		t.Fatal(err)
	}
	p := compile(t, src, true)
	ip := NewInterp(p, 0)
	if _, err := ip.Run(); err != nil {
		t.Fatal(err)
	}
	evMem, ipMem := ev.Memory(), ip.Memory()
	if len(evMem) != len(ipMem) {
		t.Fatalf("memory sizes differ: %d vs %d", len(evMem), len(ipMem))
	}
	for i := range evMem {
		if evMem[i] != ipMem[i] {
			t.Fatalf("memory[%d]: evaluator=%d interp=%d", i, evMem[i], ipMem[i])
		}
	}
}

func TestOptimizeShrinksCode(t *testing.T) {
	src := `func main() { var s = 0; for var i = 0; i < 100; i = i + 1 { s = s + i * 1 + 0; } return s; }`
	unopt := compile(t, src, false)
	opt := compile(t, src, true)
	count := func(p *Program) int {
		n := 0
		for _, f := range p.Funcs {
			for _, b := range f.Blocks {
				n += len(b.Instrs) + 1
			}
		}
		return n
	}
	cu, co := count(unopt), count(opt)
	if co >= cu {
		t.Errorf("optimizer did not shrink code: %d -> %d\n%s", cu, co, opt)
	}
	// And results still agree.
	want, _ := NewInterp(unopt, 0).Run()
	got, _ := NewInterp(opt, 0).Run()
	if want != got {
		t.Errorf("optimization changed result: %d -> %d", want, got)
	}
}

func TestCompactRemovesUnreachable(t *testing.T) {
	p := compile(t, `func main() { if 1 { return 4; } else { return 5; } }`, false)
	f := p.Funcs[0]
	// All remaining blocks must be reachable and correctly numbered.
	if f.Entry != 0 {
		t.Errorf("entry = %d", f.Entry)
	}
	for i, b := range f.Blocks {
		if b.ID != i {
			t.Errorf("block %d has ID %d", i, b.ID)
		}
		for _, s := range b.Succs() {
			if s < 0 || s >= len(f.Blocks) {
				t.Errorf("block %d has successor %d out of range", i, s)
			}
		}
	}
}

func TestBackEdgesAndHeaders(t *testing.T) {
	p := compile(t, `func main() { var s = 0; for var i = 0; i < 3; i = i + 1 { var j = 0; while j < 2 { s = s + 1; j = j + 1; } } return s; }`, false)
	f := p.Funcs[0]
	back := f.BackEdges()
	if len(back) != 2 {
		t.Errorf("got %d back edges, want 2: %v\n%s", len(back), back, f)
	}
	headers := f.LoopHeaders()
	if len(headers) != 2 {
		t.Errorf("got %d loop headers, want 2", len(headers))
	}
	for e := range back {
		if !headers[e.To] {
			t.Errorf("back edge %v target not a header", e)
		}
	}
}

func TestLivenessParamsLiveAtEntry(t *testing.T) {
	p := compile(t, `func f(a, b) { var s = 0; while a > 0 { s = s + b; a = a - 1; } return s; } func main() { return f(3, 4); }`, false)
	f := p.Funcs[0]
	liveIn, _ := f.Liveness()
	for _, pr := range f.Params {
		if !liveIn[f.Entry].Has(pr) {
			t.Errorf("param r%d not live at entry", pr)
		}
	}
}

func TestRegSetOperations(t *testing.T) {
	s := NewRegSet(130)
	s.Add(0)
	s.Add(64)
	s.Add(129)
	s.Add(NoReg) // no-op
	if !s.Has(0) || !s.Has(64) || !s.Has(129) || s.Has(1) || s.Has(NoReg) {
		t.Error("membership wrong")
	}
	if got := s.Count(); got != 3 {
		t.Errorf("Count = %d", got)
	}
	m := s.Members()
	if len(m) != 3 || m[0] != 0 || m[1] != 64 || m[2] != 129 {
		t.Errorf("Members = %v", m)
	}
	s.Remove(64)
	if s.Has(64) || s.Count() != 2 {
		t.Error("Remove failed")
	}
	o := NewRegSet(130)
	o.Add(7)
	if !o.UnionWith(s) || !o.Has(0) || !o.Has(7) {
		t.Error("UnionWith failed")
	}
	if o.UnionWith(s) {
		t.Error("UnionWith reported change on no-op")
	}
	c := o.Clone()
	c.Remove(7)
	if !o.Has(7) {
		t.Error("Clone aliases storage")
	}
}

func TestInterpOutOfFuel(t *testing.T) {
	p := compile(t, `func main() { while 1 { } return 0; }`, false)
	if _, err := NewInterp(p, 1000).Run(); err != ErrInterpFuel {
		t.Fatalf("got %v, want ErrInterpFuel", err)
	}
}

func TestInterpBoundsFault(t *testing.T) {
	p := compile(t, "global a[4];\nfunc main() { var i = 100; return a[i]; }", false)
	if _, err := NewInterp(p, 0).Run(); err == nil {
		t.Fatal("out-of-range load not detected")
	}
}

func TestInstrUsesAndString(t *testing.T) {
	in := Instr{Kind: KAlu, Op: isa.OpAdd, Dst: 2, A: 0, B: 1}
	uses := in.Uses(nil)
	if len(uses) != 2 || uses[0] != 0 || uses[1] != 1 {
		t.Errorf("Uses = %v", uses)
	}
	neg := Instr{Kind: KAlu, Op: isa.OpNeg, Dst: 2, A: 0, B: 1}
	if u := neg.Uses(nil); len(u) != 1 {
		t.Errorf("unary Uses = %v", u)
	}
	st := Instr{Kind: KStore, A: 3, B: 4, Dst: NoReg}
	if st.HasDst() || st.Pure() {
		t.Error("store should have no dst and not be pure")
	}
	if s := in.String(); s != "r2 = add r0, r1" {
		t.Errorf("String = %q", s)
	}
	if s := (Term{Kind: TBranch, Cond: 1, Then: 2, Else: 3}).String(); s != "branch r1 ? b2 : b3" {
		t.Errorf("Term.String = %q", s)
	}
}

// TestIfConvertReportsConversions: the count IfConvert returns is the number
// of diamonds and triangles it rewrote — each turns exactly one branch into
// a jump — and 0 means the function is the one it was given, which is what
// lets a caller holding a Clone drop it.
func TestIfConvertReportsConversions(t *testing.T) {
	branches := func(p *Program) (n int) {
		for _, f := range p.Funcs {
			for _, b := range f.Blocks {
				if b.Term.Kind == TBranch {
					n++
				}
			}
		}
		return n
	}
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"diamond", "if x > 1 { y = x + 1; } else { y = x - 2; }", 1},
		{"triangle", "if x > 1 { y = x + 1; }", 1},
		{"two in a row", "if x > 1 { y = x + 1; } if x > 2 { y = y * 3; } else { y = y - 1; }", 2},
		// The inner one; its emptied join block stays between the outer
		// then-arm and the outer join, so the outer shape no longer matches.
		{"nested", "if x > 1 { if x > 2 { y = 7; } else { y = 9; } } else { y = x; }", 1},
		{"store in an arm", "if x > 1 { a[1] = x; } else { y = 2; }", 0},
		{"loop only", "while y < x { y = y + 3; }", 0},
		{"straight line", "y = x * x;", 0},
	} {
		src := "global a[4] = {5, 6, 7, 8};\nfunc main() { var x = a[0]; var y = 0; " + tc.body + " return y + a[1]; }"
		p, _, _, err := FromSource(src, 1, 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		before, had := p.Clone(), branches(p)
		got := p.IfConvert()
		if got != tc.want || had-branches(p) != got {
			t.Errorf("%s: IfConvert reported %d conversions, want %d; branches %d -> %d", tc.name, got, tc.want, had, branches(p))
		}
		if got == 0 && !reflect.DeepEqual(before, p) {
			t.Errorf("%s: no conversion, but the program changed", tc.name)
		}
		if again := p.IfConvert(); again != 0 {
			t.Errorf("%s: a second IfConvert converted %d more", tc.name, again)
		}
	}

	// The same two properties on real programs, function by function.
	converted, untouched := 0, 0
	for _, name := range referenceCorpus(30) {
		p := mustFromSource(t, name, 4, 1)
		before := p.Clone()
		total := 0
		for i, f := range p.Funcs {
			had := branches(&Program{Funcs: []*Func{f}})
			n := f.IfConvert()
			if left := branches(&Program{Funcs: []*Func{f}}); had-left != n {
				t.Errorf("%s: %s: reported %d conversions, branches %d -> %d", name, f.Name, n, had, left)
			}
			if n == 0 && !reflect.DeepEqual(before.Funcs[i], f) {
				t.Errorf("%s: %s: no conversion, but the function changed", name, f.Name)
			}
			total += n
		}
		if n := before.IfConvert(); n != total || !reflect.DeepEqual(before, p) {
			t.Errorf("%s: Program.IfConvert converted %d, the functions one by one %d", name, n, total)
		}
		if total == 0 {
			untouched++
		} else {
			converted++
		}
	}
	if converted == 0 || untouched == 0 {
		t.Errorf("%d programs converted, %d untouched; the test needs both", converted, untouched)
	}
}
