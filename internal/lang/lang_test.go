package lang

import (
	"strings"
	"testing"
)

func TestLexBasics(t *testing.T) {
	toks, err := LexAll("func main() { var x = 0x1F + 2; } // comment")
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]TokKind, 0, len(toks))
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	want := []TokKind{TokFunc, TokIdent, TokLParen, TokRParen, TokLBrace,
		TokVar, TokIdent, TokAssign, TokInt, TokPlus, TokInt, TokSemi,
		TokRBrace, TokEOF}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(kinds), len(want), kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	if toks[8].Int != 0x1F {
		t.Errorf("hex literal = %d, want 31", toks[8].Int)
	}
}

func TestLexOperators(t *testing.T) {
	toks, err := LexAll("== != <= >= << >> && || < > = ! & | ^ ~ %")
	if err != nil {
		t.Fatal(err)
	}
	want := []TokKind{TokEq, TokNe, TokLe, TokGe, TokShl, TokShr, TokAndAnd,
		TokOrOr, TokLt, TokGt, TokAssign, TokBang, TokAmp, TokPipe, TokCaret,
		TokTilde, TokPercent, TokEOF}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Fatalf("token %d = %v, want %v", i, toks[i].Kind, k)
		}
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := LexAll("var x = @;"); err == nil {
		t.Error("expected error for '@'")
	}
	if _, err := LexAll("var x = 12abz;"); err == nil {
		t.Error("expected error for malformed literal")
	}
	if _, err := LexAll("var x = 99999999999999999999;"); err == nil {
		t.Error("expected error for overflowing literal")
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := LexAll("func\n  main")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("first token at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("second token at %v, want 2:3", toks[1].Pos)
	}
}

func TestParseGlobals(t *testing.T) {
	f, err := Parse(`
		global a;
		global b = 7;
		global c = -3;
		global d[10];
		global e[4] = {1, 2, -3};
		func main() { return 0; }
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Globals) != 5 {
		t.Fatalf("got %d globals", len(f.Globals))
	}
	if f.Globals[1].Init[0] != 7 || f.Globals[2].Init[0] != -3 {
		t.Error("scalar initializers wrong")
	}
	if f.Globals[3].Size != 10 {
		t.Error("array size wrong")
	}
	e := f.Globals[4]
	if e.Size != 4 || len(e.Init) != 3 || e.Init[2] != -3 {
		t.Errorf("array initializer wrong: %+v", e)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"func main( { }",
		"global x[0];",
		"global x[2] = {1,2,3};",
		"func main() { if { } }",
		"func main() { var ; }",
		"wibble",
		"func main() { x = ; }",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestCheckErrors(t *testing.T) {
	bad := map[string]string{
		"no main":           `func f() { return 0; }`,
		"main params":       `func main(x) { return 0; }`,
		"undeclared var":    `func main() { return x; }`,
		"undeclared assign": `func main() { x = 1; return 0; }`,
		"redeclared var":    `func main() { var x; var x; return 0; }`,
		"redeclared global": "global g;\nglobal g;\nfunc main() { return 0; }",
		"redeclared func":   `func f() { return 0; } func f() { return 1; } func main() { return 0; }`,
		"unknown func":      `func main() { return f(); }`,
		"bad arity":         `func f(a, b) { return a; } func main() { return f(1); }`,
		"array no index":    "global a[4];\nfunc main() { return a; }",
		"index non-array":   `func main() { var x; return x[0]; }`,
		"break outside":     `func main() { break; return 0; }`,
		"continue outside":  `func main() { continue; return 0; }`,
		"func/global clash": "global f;\nfunc f() { return 0; }\nfunc main() { return 0; }",
		"store non-global":  `func main() { var x; x[0] = 1; return 0; }`,
		"for post var":      `func main() { for var i = 0; i < 3; var j = 0 { } return 0; }`,
	}
	for name, src := range bad {
		if _, err := ParseAndCheck(src); err == nil {
			t.Errorf("%s: checker accepted %q", name, src)
		}
	}
}

func TestCheckAccepts(t *testing.T) {
	good := `
		global counter;
		global table[8] = {1, 1, 2, 3, 5, 8, 13, 21};

		func helper(a, b) {
			if a > b { return a - b; }
			return b - a;
		}

		func main() {
			var total = 0;
			for var i = 0; i < 8; i = i + 1 {
				total = total + table[i];
				counter = counter + 1;
			}
			var i = 0;
			while i < 3 {
				total = total + helper(total, i);
				i = i + 1;
				if total > 1000 { break; } else { continue; }
			}
			return total;
		}
	`
	if _, err := ParseAndCheck(good); err != nil {
		t.Fatalf("checker rejected valid program: %v", err)
	}
}

// evalCases drive the reference evaluator; the same table is reused by
// the compiler and simulator test suites as a differential oracle.
var evalCases = []struct {
	name string
	src  string
	want int64
}{
	{"return const", `func main() { return 42; }`, 42},
	{"arith", `func main() { return (2 + 3) * 4 - 10 / 3; }`, 17},
	{"precedence", `func main() { return 2 + 3 * 4; }`, 14},
	{"unary", `func main() { return -(3) + !0 + !7 + ~0; }`, -3},
	{"shifts", `func main() { return (1 << 10) + (-16 >> 2); }`, 1020},
	{"comparisons", `func main() { return (1 < 2) + (2 <= 2) + (3 > 4) + (4 >= 4) + (1 == 1) + (1 != 1); }`, 4},
	{"div by zero", `func main() { var z = 0; return 7 / z + 7 % z; }`, 0},
	{"if taken", `func main() { if 1 < 2 { return 10; } return 20; }`, 10},
	{"if not taken", `func main() { if 2 < 1 { return 10; } return 20; }`, 20},
	{"if else chain", `func main() { var x = 5; if x < 3 { return 1; } else if x < 7 { return 2; } else { return 3; } }`, 2},
	{"while sum", `func main() { var s = 0; var i = 0; while i < 10 { s = s + i; i = i + 1; } return s; }`, 45},
	{"for sum", `func main() { var s = 0; for var i = 1; i <= 100; i = i + 1 { s = s + i; } return s; }`, 5050},
	{"nested loops", `func main() { var s = 0; for var i = 0; i < 5; i = i + 1 { for var j = 0; j < 5; j = j + 1 { s = s + i * j; } } return s; }`, 100},
	{"break", `func main() { var i = 0; while 1 { if i >= 7 { break; } i = i + 1; } return i; }`, 7},
	{"continue", `func main() { var s = 0; for var i = 0; i < 10; i = i + 1 { if i % 2 { continue; } s = s + i; } return s; }`, 20},
	{"globals", "global g = 5;\nfunc main() { g = g + 1; return g * 2; }", 12},
	{"array rw", "global a[10];\nfunc main() { for var i = 0; i < 10; i = i + 1 { a[i] = i * i; } var s = 0; for var i = 0; i < 10; i = i + 1 { s = s + a[i]; } return s; }", 285},
	{"array init", "global a[4] = {10, 20, 30};\nfunc main() { return a[0] + a[1] + a[2] + a[3]; }", 60},
	{"call simple", `func double(x) { return x * 2; } func main() { return double(21); }`, 42},
	{"call nested", `func add(a, b) { return a + b; } func main() { return add(add(1, 2), add(3, 4)); }`, 10},
	{"recursion fib", `func fib(n) { if n < 2 { return n; } return fib(n-1) + fib(n-2); } func main() { return fib(12); }`, 144},
	{"recursion memory", "global seen[20];\nfunc fact(n) { seen[n] = 1; if n <= 1 { return 1; } return n * fact(n - 1); }\nfunc main() { var f = fact(6); var c = 0; for var i = 0; i < 20; i = i + 1 { c = c + seen[i]; } return f + c; }", 726},
	{"short circuit and", "global g;\nfunc bump() { g = g + 1; return 0; }\nfunc main() { var x = 0 && bump(); return g * 10 + x; }", 0},
	{"short circuit or", "global g;\nfunc bump() { g = g + 1; return 1; }\nfunc main() { var x = 1 || bump(); return g * 10 + x; }", 1},
	{"and evaluates rhs", "global g;\nfunc bump() { g = g + 1; return 5; }\nfunc main() { var x = 1 && bump(); return g * 10 + x; }", 11},
	{"implicit return", `func f() { } func main() { return f() + 3; }`, 3},
	{"return no value", `func f() { return; } func main() { return f() + 3; }`, 3},
	{"shadowing", `func main() { var x = 1; { var x = 2; x = 3; } return x; }`, 1},
	{"for loop scope", `func main() { var s = 0; for var i = 0; i < 3; i = i + 1 { s = s + i; } for var i = 0; i < 3; i = i + 1 { s = s + i; } return s; }`, 6},
	{"memory order", "global a[4];\nfunc main() { a[0] = 1; a[1] = a[0] + 1; a[0] = a[1] + 1; return a[0] * 10 + a[1]; }", 32},
	{"gcd", `func gcd(a, b) { while b != 0 { var t = b; b = a % b; a = t; } return a; } func main() { return gcd(1071, 462); }`, 21},
	{"collatz", `func main() { var n = 27; var steps = 0; while n != 1 { if n % 2 { n = 3 * n + 1; } else { n = n / 2; } steps = steps + 1; } return steps; }`, 111},
}

func TestEvaluator(t *testing.T) {
	for _, c := range evalCases {
		t.Run(c.name, func(t *testing.T) {
			got, err := EvalProgram(c.src)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Fatalf("got %d, want %d", got, c.want)
			}
		})
	}
}

func TestEvaluatorOutOfFuel(t *testing.T) {
	f, err := ParseAndCheck(`func main() { while 1 { } return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(f, 10_000)
	if _, err := ev.Run(); err != ErrOutOfFuel {
		t.Fatalf("got %v, want ErrOutOfFuel", err)
	}
}

func TestEvaluatorBoundsError(t *testing.T) {
	src := "global a[4];\nfunc main() { return a[9]; }"
	if _, err := EvalProgram(src); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("got %v, want out-of-range error", err)
	}
	src2 := "global a[4];\nfunc main() { a[-1] = 3; return 0; }"
	if _, err := EvalProgram(src2); err == nil {
		t.Fatal("negative index accepted")
	}
}

func TestEvaluatorMemoryImage(t *testing.T) {
	f, err := ParseAndCheck("global a[4];\nglobal b = 9;\nfunc main() { a[2] = 5; return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(f, 0)
	if _, err := ev.Run(); err != nil {
		t.Fatal(err)
	}
	m := ev.Memory()
	if m[2] != 5 || m[4] != 9 {
		t.Fatalf("memory image %v", m)
	}
}

func TestBuildLayout(t *testing.T) {
	f, err := Parse("global a[3];\nglobal b;\nglobal c[2];\nfunc main() { return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	l := BuildLayout(f)
	if l.Addr["a"] != 0 || l.Addr["b"] != 3 || l.Addr["c"] != 4 || l.Words != 6 {
		t.Fatalf("layout %+v", l)
	}
	empty := BuildLayout(&File{})
	if empty.Words != 1 {
		t.Error("empty layout should reserve one word")
	}
}
