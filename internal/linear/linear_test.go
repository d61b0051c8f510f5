package linear

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"wavescalar/internal/cfgir"
	"wavescalar/internal/isa"
	"wavescalar/internal/lang"
	"wavescalar/internal/testprogs"
	"wavescalar/internal/workloads"
)

// CompileSource is shared test plumbing: frontend -> IR -> optimize ->
// linear.
func compileSource(t testing.TB, src string) *Program {
	t.Helper()
	p, _, _, err := cfgir.FromSource(src, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := Compile(p)
	if err != nil {
		t.Fatalf("linear: %v", err)
	}
	return lp
}

// TestEmulatorMatchesEvaluator runs the whole corpus through the linear
// backend and emulator, checking the result and memory image against the
// AST evaluator.
func TestEmulatorMatchesEvaluator(t *testing.T) {
	for _, c := range testprogs.Corpus {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			f, err := lang.ParseAndCheck(c.Src)
			if err != nil {
				t.Fatal(err)
			}
			ev := lang.NewEvaluator(f, 0)
			want, err := ev.Run()
			if err != nil {
				t.Fatal(err)
			}
			lp := compileSource(t, c.Src)
			em := NewEmulator(lp, 0)
			got, err := em.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("emulator = %d, want %d", got, want)
			}
			wantMem, gotMem := ev.Memory(), em.Memory()
			for i := range wantMem {
				if gotMem[i] != wantMem[i] {
					t.Fatalf("memory[%d] = %d, want %d", i, gotMem[i], wantMem[i])
				}
			}
		})
	}
}

func TestTraceCoversAllInstructions(t *testing.T) {
	lp := compileSource(t, `func f(x) { return x * 2; } func main() { var s = 0; for var i = 0; i < 5; i = i + 1 { s = s + f(i); } return s; }`)
	em := NewEmulator(lp, 0)
	var events int64
	var calls, rets, branches int
	em.Trace = func(ev TraceEvent) {
		events++
		switch ev.Instr.Op {
		case LCall:
			calls++
			if ev.CalleeFrame == ev.Frame {
				t.Error("callee frame equals caller frame")
			}
		case LRet:
			rets++
		case LBranch:
			branches++
		}
	}
	if _, err := em.Run(); err != nil {
		t.Fatal(err)
	}
	if events != em.Instrs {
		t.Errorf("trace saw %d events, emulator counted %d", events, em.Instrs)
	}
	if calls != 5 || rets != 6 { // 5 calls to f + return from main
		t.Errorf("calls=%d rets=%d", calls, rets)
	}
	if branches == 0 {
		t.Error("no branch events in a loop")
	}
}

func TestFallthroughLayout(t *testing.T) {
	// A simple if/else should compile without a jump for the fallthrough
	// arm; count control instructions as a sanity check on layout quality.
	lp := compileSource(t, `func main() { var x = 1; if x { x = 2; } else { x = 3; } return x; }`)
	f := lp.Funcs[lp.Entry]
	jumps := 0
	for i := range f.Code {
		if f.Code[i].Op == LJump {
			jumps++
		}
	}
	if jumps > 2 {
		t.Errorf("layout emitted %d jumps for a diamond; expected <= 2\n%v", jumps, f.Code)
	}
}

func TestEmulatorFuel(t *testing.T) {
	lp := compileSource(t, `func main() { while 1 { } return 0; }`)
	if _, err := NewEmulator(lp, 100).Run(); err != ErrFuel {
		t.Fatalf("got %v, want ErrFuel", err)
	}
}

// TestEmulatorStopRequest: a raised Stop ends the run with ErrStopped within
// one poll interval — raised while the program runs (here by the trace hook,
// so the instruction it is raised at is known) or before it starts — and an
// emulator nobody stops is not affected by having one.
func TestEmulatorStopRequest(t *testing.T) {
	lp := compileSource(t, `func main() { while 1 { } return 0; }`)
	var stop atomic.Bool
	const raiseAt = 1000
	em := NewEmulator(lp, 0)
	em.Stop = &stop
	em.Trace = func(TraceEvent) {
		if em.Instrs == raiseAt {
			stop.Store(true)
		}
	}
	if _, err := em.Run(); err != ErrStopped || em.Instrs <= raiseAt || em.Instrs > raiseAt+stopPoll {
		t.Errorf("stop raised at instruction %d: %v after %d instructions", raiseAt, err, em.Instrs)
	}
	em = NewEmulator(lp, 0)
	em.Stop = &stop
	if _, err := em.Run(); err != ErrStopped || em.Instrs > stopPoll {
		t.Errorf("stop raised before Run: %v after %d instructions", err, em.Instrs)
	}

	lp = compileSource(t, `func main() { var i = 0; while i < 100 { i = i + 1; } return i; }`)
	em = NewEmulator(lp, 0)
	em.Stop = new(atomic.Bool)
	if v, err := em.Run(); v != 100 || err != nil {
		t.Errorf("never stopped: %d, %v", v, err)
	}
}

func TestInstrStrings(t *testing.T) {
	lp := compileSource(t, "global a[4];\nfunc main() { a[1] = 2; return a[1]; }")
	for _, f := range lp.Funcs {
		for i := range f.Code {
			if s := f.Code[i].String(); s == "?" || s == "" {
				t.Errorf("instruction %d renders %q", i, s)
			}
		}
	}
}

func TestHeavyCorpus(t *testing.T) {
	for _, c := range testprogs.Heavy {
		want, err := lang.EvalProgram(c.Src)
		if err != nil {
			t.Fatal(err)
		}
		lp := compileSource(t, c.Src)
		got, err := NewEmulator(lp, 0).Run()
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if got != want {
			t.Fatalf("%s: got %d, want %d", c.Name, got, want)
		}
	}
}

// emulatorRef is Emulator.call as first written: a fresh register slice per
// activation, a fresh argument slice per call, and a TraceEvent built for
// every instruction whether or not anyone listens.
type emulatorRef struct {
	prog   *Program
	mem    []int64
	instrs int64
	trace  func(TraceEvent)
}

func (e *emulatorRef) call(fi int, args []int64, frames *int64) (int64, error) {
	f := e.prog.Funcs[fi]
	frame := *frames
	*frames++
	regs := make([]int64, f.NumRegs)
	for i, pr := range f.Params {
		regs[pr] = args[i]
	}
	pc := 0
	for {
		in := &f.Code[pc]
		e.instrs++
		ev := TraceEvent{Func: fi, PC: pc, Frame: frame, Instr: in}
		next := pc + 1
		switch in.Op {
		case LConst:
			regs[in.Rd] = in.Imm
		case LAlu:
			var b int64
			if in.Alu.NumInputs() == 2 {
				b = regs[in.Rb]
			}
			regs[in.Rd] = isa.EvalALU(in.Alu, regs[in.Ra], b)
		case LSelect:
			if regs[in.Ra] != 0 {
				regs[in.Rd] = regs[in.Rb]
			} else {
				regs[in.Rd] = regs[in.Rc]
			}
		case LLoad:
			addr := regs[in.Ra]
			ev.Addr = addr
			if addr < 0 || addr >= int64(len(e.mem)) {
				return 0, fmt.Errorf("linear: %s: load address %d out of range", f.Name, addr)
			}
			regs[in.Rd] = e.mem[addr]
		case LStore:
			addr := regs[in.Ra]
			ev.Addr = addr
			if addr < 0 || addr >= int64(len(e.mem)) {
				return 0, fmt.Errorf("linear: %s: store address %d out of range", f.Name, addr)
			}
			e.mem[addr] = regs[in.Rb]
		case LJump:
			next = in.Target
		case LBranch:
			if regs[in.Ra] != 0 {
				next = in.Target
				ev.Taken = true
			}
		case LCall:
			callArgs := make([]int64, len(in.Args))
			for i, a := range in.Args {
				callArgs[i] = regs[a]
			}
			ev.CalleeFrame = *frames
			e.trace(ev)
			v, err := e.call(in.Callee, callArgs, frames)
			if err != nil {
				return 0, err
			}
			regs[in.Rd] = v
			pc = next
			continue
		case LRet:
			e.trace(ev)
			return regs[in.Ra], nil
		}
		e.trace(ev)
		pc = next
	}
}

// TestEmulatorMatchesPerActivationReference: taking every frame from one
// slab changes nothing an observer can see — result, error text,
// instruction count, memory image and, event for event, the trace the
// out-of-order model consumes — on the test corpus (recursion, calls inside
// argument lists and loops: the places where a frame taken before a nested
// push would be stale), the heavy programs, two kernels and a program that
// traps inside a callee. The untraced run, which builds no events, agrees
// with the traced one.
func TestEmulatorMatchesPerActivationReference(t *testing.T) {
	type subject struct{ name, src string }
	var subjects []subject
	for _, c := range testprogs.Corpus {
		subjects = append(subjects, subject{c.Name, c.Src})
	}
	for _, c := range testprogs.Heavy {
		subjects = append(subjects, subject{c.Name, c.Src})
	}
	for _, k := range []string{"fft", "mcf"} {
		subjects = append(subjects, subject{k, workloads.ByName(k).Src})
	}
	// Recursion through several slabs, and calls that cross a slab boundary
	// over and over from a frame that sits just below it.
	subjects = append(subjects, subject{"deep recursion", `
func down(n, a, b, c) { if n == 0 { return a + b + c; } var t = n * 3; return t + down(n - 1, b, c, a + 1) - t; }
func main() { var s = 0; for var d = 0; d < 400; d = d + 7 { s = s + down(d, 1, 2, 3) + down(3, d, s, 1); } return s; }`})
	subjects = append(subjects, subject{"trap in a callee", `
global a[4];
func put(i, v) { a[i] = v; return i; }
func main() { var s = 0; for var i = 0; i < 9; i = i + 1 { s = s + put(i + put(0, i), i); } return s; }`})
	events := 0
	for _, s := range subjects {
		lp := compileSource(t, s.src)

		ref := &emulatorRef{prog: lp, mem: lp.InitialMemory()}
		var want []TraceEvent
		ref.trace = func(ev TraceEvent) { want = append(want, ev) }
		frames := int64(0)
		wantV, wantErr := ref.call(lp.Entry, nil, &frames)

		traced := NewEmulator(lp, 0)
		var got []TraceEvent
		traced.Trace = func(ev TraceEvent) { got = append(got, ev) }
		gotV, gotErr := traced.Run()

		plain := NewEmulator(lp, 0)
		plainV, plainErr := plain.Run()

		if gotV != wantV || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || traced.Instrs != ref.instrs || !slices.Equal(traced.Memory(), ref.mem) {
			t.Errorf("%s: traced run (%d, %v, %d instrs) differs from the reference (%d, %v, %d instrs) or in memory",
				s.name, gotV, gotErr, traced.Instrs, wantV, wantErr, ref.instrs)
		}
		if plainV != wantV || fmt.Sprint(plainErr) != fmt.Sprint(wantErr) || plain.Instrs != ref.instrs || !slices.Equal(plain.Memory(), ref.mem) {
			t.Errorf("%s: untraced run (%d, %v, %d instrs) differs from the reference (%d, %v, %d instrs) or in memory",
				s.name, plainV, plainErr, plain.Instrs, wantV, wantErr, ref.instrs)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: trace of %d events differs from the reference's %d", s.name, len(got), len(want))
		}
		// Every frame but main's went back (main's own is in a retired slab
		// when the run outgrew the first one).
		if main := lp.Funcs[lp.Entry].NumRegs; wantErr == nil && len(plain.slab) > main {
			t.Errorf("%s: %d words of frames outstanding after the run, main's frame is %d", s.name, len(plain.slab), main)
		}
		events += len(want)
	}
	t.Logf("compared %d trace events over %d programs", events, len(subjects))
}

var sinkValue int64

// BenchmarkEmulator is the linear.emulate layer on a kernel with no calls
// (gzip) and one that calls in its inner loops (twolf): untraced is the run
// CompileSource makes for the checksum and the work count, traced the front
// end of the out-of-order model (a callback per instruction).
func BenchmarkEmulator(b *testing.B) {
	var events int64
	for _, kernel := range []string{"gzip", "twolf"} {
		lp := compileSource(b, workloads.ByName(kernel).Src)
		for _, mode := range []struct {
			name  string
			trace func(TraceEvent)
		}{
			{"untraced", nil},
			{"traced", func(ev TraceEvent) { events += int64(ev.PC) & 1 }},
		} {
			b.Run(kernel+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				var instrs int64
				for b.Loop() {
					em := NewEmulator(lp, 0)
					em.Trace = mode.trace
					v, err := em.Run()
					if err != nil {
						b.Fatal(err)
					}
					sinkValue = v
					instrs += em.Instrs
				}
				b.ReportMetric(float64(instrs)/1e6/b.Elapsed().Seconds(), "Minstr/s")
			})
		}
	}
	sinkValue += events
}
