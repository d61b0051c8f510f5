package lang_test

import (
	"errors"
	"testing"

	"wavescalar/internal/lang"
	"wavescalar/internal/workloads"
)

// TestEvaluatorKernelPins fixes the oracle's result and step count on the
// ten kernels. Steps is the fuel accounting: a change to how the evaluator
// stores its variables must not move either number.
func TestEvaluatorKernelPins(t *testing.T) {
	for _, want := range []struct {
		name          string
		result, steps int64
	}{
		{"adpcm", 1327759, 177335},
		{"mpeg2", 312889277, 539584},
		{"gzip", 2714491, 859621},
		{"mcf", 191171576, 204998},
		{"twolf", 6160635, 2164018},
		{"art", 839088246, 861346},
		{"equake", -425718278, 725031},
		{"ammp", 824054271, 496552},
		{"fft", 638760342, 143270},
		{"lu", 369904666, 108714},
	} {
		f, err := lang.ParseAndCheck(workloads.ByName(want.name).Src)
		if err != nil {
			t.Fatalf("%s: %v", want.name, err)
		}
		ev := lang.NewEvaluator(f, 0)
		got, err := ev.Run()
		if err != nil {
			t.Fatalf("%s: %v", want.name, err)
		}
		if got != want.result || ev.Steps != want.steps {
			t.Errorf("%s: (result, Steps) = (%d, %d), want (%d, %d)", want.name, got, ev.Steps, want.result, want.steps)
		}
	}
}

// TestEvaluatorScoping pins the scoping rules the binding stack must keep.
func TestEvaluatorScoping(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		want      int64
		unchecked bool // the checker rejects it; the evaluator still defines it
	}{
		{name: "shadowing in a nested block", want: 112, src: `
func main() {
	var x = 1;
	var y = 0;
	{ var x = 10; y = x; x = x + 1; y = y + x - 10; }
	return y * 10 + x + 1;
}`},
		{name: "initializer reads the outer variable", want: 42, src: `
func main() {
	var x = 41;
	var y = 0;
	{ var x = x + 1; y = x; }
	return y + x - 41;
}`},
		{name: "assignment before an inner var reaches the outer variable", want: 507, src: `
func main() {
	var x = 1;
	var y = 0;
	{ x = 5; var x = 7; x = x + 0; y = x; }
	return x * 100 + y;
}`},
		{name: "loop-body var is reset on every iteration", want: 3, src: `
func main() {
	var s = 0;
	for var i = 0; i < 3; i = i + 1 { var t; t = t + 1; s = s + t; }
	var j = 0;
	while j < 3 { var t; t = t + 1; s = s + t - 1; j = j + 1; }
	return s;
}`},
		{name: "for-init variable is scoped to the loop", want: 9, src: `
func main() {
	var i = 9;
	for var i = 0; i < 3; i = i + 1 { }
	return i;
}`},
		{name: "re-declaration in the same scope", want: 23, unchecked: true, src: `
func main() {
	var x = 1;
	var x = x + 1;
	x = x + 1;
	{ var y = 20; var y = y + x; return y; }
}`},
		{name: "parameter shadowed in the body", want: 35, src: `
func f(a) { var r = a; { var a = a * 10; r = r + a; } return r + a - 1; }
func main() { return f(3); }`},
		{name: "recursion gets a fresh frame per call", want: 120, src: `
func fact(n) {
	var below = 1;
	if n > 1 { below = fact(n - 1); }
	return n * below;
}
func main() { return fact(5); }`},
		{name: "callee cannot see the caller's locals", want: 7, src: `
global x = 7;
func g() { return x; }
func main() { var x = 1; return g() + x - 1; }`},
		{name: "assignment falls through to a scalar global", want: 11, src: `
global g = 1;
func set() { g = 10; return 0; }
func main() { var l = g; set(); return g + l; }`},
	} {
		f, err := lang.Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		if err := lang.Check(f); (err != nil) != tc.unchecked {
			t.Fatalf("%s: check: %v", tc.name, err)
		}
		got, err := lang.NewEvaluator(f, 0).Run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: got %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestEvaluatorFuelExhaustion(t *testing.T) {
	f, err := lang.ParseAndCheck(`
func spin(n) { var s = 0; while 1 { var t = s; s = t + n; } return s; }
func main() { return spin(1); }`)
	if err != nil {
		t.Fatal(err)
	}
	ev := lang.NewEvaluator(f, 1000)
	if _, err := ev.Run(); !errors.Is(err, lang.ErrOutOfFuel) {
		t.Fatalf("err = %v, want ErrOutOfFuel", err)
	}
	if ev.Steps != 1001 {
		t.Errorf("Steps = %d, want 1001 (the step that found the tank empty)", ev.Steps)
	}
}

var sinkResult int64

// BenchmarkEvalProgram is the AST-evaluator layer: parse, check and run a
// kernel, as CompileSource's cross-check does.
func BenchmarkEvalProgram(b *testing.B) {
	for _, name := range []string{"ammp", "twolf"} {
		src := workloads.ByName(name).Src
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				v, err := lang.EvalProgram(src)
				if err != nil {
					b.Fatal(err)
				}
				sinkResult = v
			}
		})
	}
}
