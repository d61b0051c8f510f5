package lang_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"wavescalar/internal/lang"
	"wavescalar/internal/testprogs"
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

// evalOutcome is everything an evaluator run can be observed to do.
type evalOutcome struct {
	result, steps int64
	err           string
	mem           []int64
}

func (o evalOutcome) equal(p evalOutcome) bool {
	return o.result == p.result && o.steps == p.steps && o.err == p.err && slices.Equal(o.mem, p.mem)
}

func (o evalOutcome) String() string {
	return fmt.Sprintf("result %d, Steps %d, err %q, %d words of memory", o.result, o.steps, o.err, len(o.mem))
}

func outcome(result int64, err error, steps int64, mem []int64) evalOutcome {
	o := evalOutcome{result: result, steps: steps, mem: mem}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

func boundOutcome(f *lang.File, fuel int64) evalOutcome {
	ev := lang.NewEvaluator(f, fuel)
	v, err := ev.Run()
	return outcome(v, err, ev.Steps, ev.Memory())
}

func byNameOutcome(f *lang.File, fuel int64) evalOutcome {
	ev := newRefEvaluator(f, fuel)
	v, err := ev.Run()
	return outcome(v, err, ev.Steps, ev.Memory())
}

// shadowingCases are the scoping rules a slot assignment could get wrong:
// each is a place where two declarations of one name are live at once, or
// one has just stopped being.
var shadowingCases = []struct{ name, src string }{
	{"nested block shadows and is popped", `
func main() {
	var x = 1;
	var y = 0;
	{ var x = 10; { var x = 100; y = y + x; } y = y + x; }
	var z = 5;
	return y * 10 + x + z;
}`},
	{"parameter shadowed in the body", `
func f(a, b) { var r = a; { var a = a * 10; var b = a + b; r = r + a + b; } return r + a - b; }
func main() { return f(3, 4) + f(f(1, 2), 5); }`},
	{"for-init variable shadows an outer one", `
func main() {
	var i = 9;
	var s = 0;
	for var i = 0; i < 3; i = i + 1 { var t = i; s = s + t; }
	var after = i;
	for i = 0; i < 2; i = i + 1 { s = s + 100; }
	return s * 100 + after * 10 + i;
}`},
	{"local shadows a scalar global that is read again after the block", `
global g = 7;
global a[4];
func bump() { g = g + 1; return g; }
func main() {
	var before = g;
	{ var g = 40; g = g + 1; a[1] = g; bump(); }
	g = g + 100;
	return before * 1000000 + a[1] * 1000 + g;
}`},
	{"slots are reused by sibling blocks and by callees", `
func leaf(n) { var p = n + 1; { var q = p * 2; return q; } }
func main() {
	var s = 0;
	if s == 0 { var u = 3; s = s + leaf(u); } else { var v = 4; s = s - v; }
	{ var w; s = s * 10 + w; }
	while s < 1000 { var k = leaf(s); s = s + k; }
	return s;
}`},
	{"a call inside an argument list", `
func add(a, b) { var t = a + b; return t; }
func main() { var x = 2; return add(add(x, add(3, 4)), add(x, x) * add(1, x)); }`},
	{"an out-of-range index names the array", `
global a[4];
global b[4];
func main() { var i = 0; b[i - 1] = 7; return a[3]; }`},
	{"an out-of-range read with more of its expression after it", `
global a[4];
func main() { var s = 0; for var i = 0; i < 9; i = i + 1 { s = s + a[i] * (i + i + i + i + i + i + i); } return s; }`},
	{"an out-of-range read inside a callee", `
global a[4];
func get(i) { return a[i]; }
func main() { var s = 0; for var i = 0; i < 9; i = i + 1 { s = s + get(i); } return s; }`},
}

// TestEvaluatorMatchesByNameReference holds the bound evaluator to the
// by-name one — result, Steps, final memory image and error text — on the
// shadowing table, the ten kernels and a generated corpus, each as written
// and unrolled by 2 and 4 (an unrolled file is where a slot scheme tied to
// the loop shapes the parser produces would break), and with the tank
// running dry at a few depths, where Steps says the two stopped at the same
// node.
func TestEvaluatorMatchesByNameReference(t *testing.T) {
	type prog struct{ name, src string }
	var progs []prog
	for _, tc := range shadowingCases {
		progs = append(progs, prog{tc.name, tc.src})
	}
	for _, n := range workloads.Names() {
		progs = append(progs, prog{n, workloads.ByName(n).Src})
	}
	for _, spec := range testprogs.CorpusSpecs(40, 1) {
		progs = append(progs, prog{spec.Name(), workloads.ByName(spec.Name()).Src})
	}
	runs := 0
	for _, p := range progs {
		for _, unroll := range []int{1, 2, 4} {
			f, err := lang.ParseAndCheck(p.src)
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			lang.Unroll(f, unroll)
			for _, fuel := range []int64{0, 1, 57, 1000, 20011} {
				if fuel != 0 && unroll == 2 {
					continue
				}
				got, want := boundOutcome(f, fuel), byNameOutcome(f, fuel)
				if !got.equal(want) {
					t.Fatalf("%s unroll %d fuel %d:\n bound:   %v\n by name: %v", p.name, unroll, fuel, got, want)
				}
				runs++
			}
		}
	}
	t.Logf("compared %d runs of %d programs", runs, len(progs))
}

// TestEvaluatorStopsWhereTheReferenceStops runs both evaluators with the
// tank running dry at every depth a program reaches, so a step charged in a
// different place, or an index error and the empty tank met in the other
// order, shows as a different Steps, error or memory image. Tier-1 samples
// the cuts: every cutStride-th fuel value from 1 to min(Steps, maxCut)+1 on
// the shadowing table and a generated corpus, as written and unrolled by 4,
// and ten seeded cuts per kernel, drawn log-uniformly from 1 to its Steps+1
// so that some land deep in its loops. FuzzEvaluatorMatchesByName takes the
// comparison to arbitrary programs and fuel.
func TestEvaluatorStopsWhereTheReferenceStops(t *testing.T) {
	const maxCut, cutStride = 1500, 7
	var srcs []string
	for _, tc := range shadowingCases {
		srcs = append(srcs, tc.src)
	}
	for _, spec := range testprogs.CorpusSpecs(40, 1) {
		srcs = append(srcs, workloads.ByName(spec.Name()).Src)
	}
	compare := func(f *lang.File, what string, fuel int64) {
		t.Helper()
		if got, want := boundOutcome(f, fuel), byNameOutcome(f, fuel); !got.equal(want) {
			t.Fatalf("%s fuel %d:\n bound:   %v\n by name: %v", what, fuel, got, want)
		}
	}
	cuts := 0
	for i, src := range srcs {
		for _, unroll := range []int{1, 4} {
			f, err := lang.ParseAndCheck(src)
			if err != nil {
				t.Fatal(err)
			}
			lang.Unroll(f, unroll)
			last := min(byNameOutcome(f, 0).steps, maxCut) + 1
			for fuel := int64(1); fuel <= last; fuel += cutStride {
				compare(f, fmt.Sprintf("program %d unroll %d", i, unroll), fuel)
				cuts++
			}
			compare(f, fmt.Sprintf("program %d unroll %d", i, unroll), last)
			cuts++
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, name := range workloads.Names() {
		f, err := lang.ParseAndCheck(workloads.ByName(name).Src)
		if err != nil {
			t.Fatal(err)
		}
		steps := boundOutcome(f, 0).steps
		for range 10 {
			fuel := int64(math.Exp(rng.Float64() * math.Log(float64(steps+1))))
			compare(f, name, max(fuel, 1))
			cuts++
		}
	}
	t.Logf("compared %d fuel cuts", cuts)
}

// FuzzEvaluatorMatchesByName runs any program the checker accepts on both
// evaluators at min(fuel, 200,000) steps (fuel 0, the default tank, is
// 200,000 too) and compares the whole outcome. Programs whose globals
// exceed 64K words are skipped: the fuzzer would spend its time zeroing
// memory. Tier-1 runs the seeds; `make fuzz` runs the target.
func FuzzEvaluatorMatchesByName(f *testing.F) {
	for _, n := range workloads.Names() {
		f.Add(workloads.ByName(n).Src, int64(200_000))
	}
	for i, tc := range shadowingCases {
		f.Add(tc.src, int64(1+i*13))
	}
	for i, spec := range testprogs.CorpusSpecs(10, 3) {
		f.Add(workloads.ByName(spec.Name()).Src, int64(1+i*97))
	}
	f.Fuzz(func(t *testing.T, src string, fuel int64) {
		file, err := lang.ParseAndCheck(src)
		if err != nil || lang.BuildLayout(file).Words > 1<<16 {
			return
		}
		if fuel == 0 || fuel > 200_000 {
			fuel = 200_000
		}
		if got, want := boundOutcome(file, fuel), byNameOutcome(file, fuel); !got.equal(want) {
			t.Fatalf("fuel %d:\n bound:   %v\n by name: %v", fuel, got, want)
		}
	})
}

// TestEvaluatorsShareAFile: NewEvaluator only reads the file, so evaluators
// built and run concurrently on one *File agree with a lone one (the race
// detector is what makes this a test of "only reads").
func TestEvaluatorsShareAFile(t *testing.T) {
	f, err := lang.ParseAndCheck(workloads.ByName("lu").Src)
	if err != nil {
		t.Fatal(err)
	}
	lang.Unroll(f, 4)
	want := boundOutcome(f, 0)
	var wg sync.WaitGroup
	got := make([]evalOutcome, 4)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = boundOutcome(f, 0)
		}()
	}
	wg.Wait()
	for i := range got {
		if !got[i].equal(want) {
			t.Errorf("evaluator %d: %v, want %v", i, got[i], want)
		}
	}
}

var sinkResult int64

// BenchmarkEvalProgram is the AST-evaluator layer: bind (NewEvaluator)
// and run an already parsed and checked kernel, as CompileSource's
// cross-check does, on the six kernels sim-memmodes compiles. ns/step is
// the time per charged step.
func BenchmarkEvalProgram(b *testing.B) {
	for _, name := range []string{"twolf", "equake", "art", "ammp", "gzip", "mcf"} {
		f, err := lang.ParseAndCheck(workloads.ByName(name).Src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var steps int64
			for b.Loop() {
				ev := lang.NewEvaluator(f, 0)
				v, err := ev.Run()
				if err != nil {
					b.Fatal(err)
				}
				sinkResult, steps = v, steps+ev.Steps
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
		})
	}
}
