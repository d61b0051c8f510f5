package linear

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"

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
	lp := compileSource(t, "global a[4];\nfunc f(x, y) { return x - y; }\nfunc main() { a[1] = 2; return f(a[1], 3); }")
	call := regexp.MustCompile(`^r\d+ = call #0\(r\d+, r\d+\)$`)
	calls := 0
	for _, f := range lp.Funcs {
		for i := range f.Code {
			s := f.Disasm(i)
			if s == "" || strings.Contains(s, "opcode(") {
				t.Errorf("%s: instruction %d renders %q", f.Name, i, s)
			}
			if call.MatchString(s) {
				calls++
			}
		}
	}
	if calls != 1 {
		t.Errorf("%d instructions render as a two-argument call of f, want 1", calls)
	}
}

// TestInstrIs24Bytes: the emulator and the timing model dispatch Code as
// it is, so an instruction stays small.
func TestInstrIs24Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Instr{}); n != 24 {
		t.Errorf("Instr is %d bytes, want 24", n)
	}
}

// TestCompileRejectsIfConverted: a select has no linear form, so Compile
// refuses IR that went through if-conversion and says so.
func TestCompileRejectsIfConverted(t *testing.T) {
	p, _, _, err := cfgir.FromSource(`func main() { var x = 1; var y = 0; if x { y = 2; } else { y = 3; } return y; }`, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := p.IfConvert(); n == 0 {
		t.Fatal("the diamond was not if-converted")
	}
	if _, err := Compile(p); err == nil || !strings.Contains(err.Error(), "if-converted") {
		t.Errorf("Compile of if-converted IR: %v, want an error naming if-converted IR", err)
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
// every instruction whether or not anyone listens. It spends fuel and polls
// a stop request the way Emulator documents them.
type emulatorRef struct {
	prog   *Program
	mem    []int64
	instrs int64
	fuel   int64
	stop   bool
	trace  func(TraceEvent)
}

func (e *emulatorRef) call(fi int, args []int64) (int64, error) {
	f := e.prog.Funcs[fi]
	regs := make([]int64, f.NumRegs)
	for i, pr := range f.Params {
		regs[pr] = args[i]
	}
	pc := 0
	for {
		in := &f.Code[pc]
		e.instrs++
		e.fuel--
		if e.fuel < 0 {
			return 0, ErrFuel
		}
		if e.fuel&(stopPoll-1) == 0 && e.stop {
			return 0, ErrStopped
		}
		ev := TraceEvent{Func: fi, PC: pc, Instr: in}
		next := pc + 1
		switch in.Op {
		case LConst:
			regs[in.Rd] = in.Imm
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
			next = int(in.Imm)
		case LBranch:
			if regs[in.Ra] != 0 {
				next = int(in.Imm)
				ev.Taken = true
			}
		case LCall:
			var callArgs []int64 // the caller registers, in parameter order
			for i := in.Ra + 1; i < in.Rb; i += 2 {
				callArgs = append(callArgs, regs[f.Moves[i]])
			}
			e.trace(ev)
			v, err := e.call(int(in.Imm), callArgs)
			if err != nil {
				return 0, err
			}
			regs[in.Rd] = v
			pc = next
			continue
		case LRet:
			e.trace(ev)
			return regs[in.Ra], nil
		default: // LAdd through LGe
			var b int64
			if in.Op.ALU().NumInputs() == 2 {
				b = regs[in.Rb]
			}
			regs[in.Rd] = isa.EvalALU(in.Op.ALU(), regs[in.Ra], b)
		}
		e.trace(ev)
		pc = next
	}
}

// run executes main with the given fuel (0 = the emulator's default) and
// stop request, and returns the result with a digest of the trace.
func (e *emulatorRef) run(fuel int64, stop bool) (int64, error, traceDigest) {
	var d traceDigest
	if fuel == 0 {
		fuel = 2_000_000_000
	}
	e.mem, e.instrs, e.fuel, e.stop = e.prog.InitialMemory(), 0, fuel, stop
	e.trace = func(ev TraceEvent) { d.add(e.prog, ev) }
	v, err := e.call(e.prog.Entry, nil)
	return v, err, d
}

// traceDigest folds a trace into its length and an FNV-1a-style hash of
// every event's fields (a word, not a byte, at a time), counts the events
// whose Instr does not point at Code[PC] of the function they name — the
// one field the hash leaves out — and notes the first and the last event
// (numbered from 1) that a function other than main ran.
type traceDigest struct {
	events, misplaced       int64
	firstCallee, lastCallee int64
	hash                    uint64
}

func (d *traceDigest) add(p *Program, ev TraceEvent) {
	if d.hash == 0 {
		d.hash = 14695981039346656037
	}
	if ev.Instr != &p.Funcs[ev.Func].Code[ev.PC] {
		d.misplaced++
	}
	taken := int64(0)
	if ev.Taken {
		taken = 1
	}
	for _, w := range [...]int64{int64(ev.Func), int64(ev.PC), taken, ev.Addr} {
		d.hash = (d.hash ^ uint64(w)) * 1099511628211
	}
	d.events++
	if ev.Func != p.Entry {
		if d.firstCallee == 0 {
			d.firstCallee = d.events
		}
		d.lastCallee = d.events
	}
}

// TestEmulatorMatchesPerActivationReference: taking every frame from one
// slab changes nothing an observer can see — result, error text,
// instruction count, memory image and, event for event, the trace the
// out-of-order model consumes — on the test corpus (recursion, calls inside
// argument lists and loops: the places where a frame taken before a nested
// push would be stale), the heavy programs, the ten kernels and a program
// that traps inside a callee. The untraced run, which builds no events,
// agrees with the traced one. Each program is also cut short: by fuel that
// runs dry after one instruction, at the first and the last instruction a
// callee runs, half-way and on main's last instruction; and by a stop
// request raised before Run that is first polled at the instruction each
// of those runs fails on (a stop is polled when the low bits of the
// remaining fuel are zero, so fuel of stopPoll + n polls first at
// instruction n modulo stopPoll).
func TestEmulatorMatchesPerActivationReference(t *testing.T) {
	type subject struct{ name, src string }
	var subjects []subject
	for _, c := range testprogs.Corpus {
		subjects = append(subjects, subject{c.Name, c.Src})
	}
	for _, c := range testprogs.Heavy {
		subjects = append(subjects, subject{c.Name, c.Src})
	}
	for _, k := range workloads.Names() {
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
	var events, cuts int64
	for _, s := range subjects {
		lp := compileSource(t, s.src)
		ref := &emulatorRef{prog: lp}

		// compare runs the emulator traced and untraced at one fuel and stop
		// setting against the reference.
		compare := func(what string, fuel int64, stop bool) (want traceDigest) {
			t.Helper()
			wantV, wantErr, want := ref.run(fuel, stop)
			for _, traced := range []bool{true, false} {
				em := NewEmulator(lp, fuel)
				if stop {
					em.Stop = new(atomic.Bool)
					em.Stop.Store(true)
				}
				var got traceDigest
				if traced {
					em.Trace = func(ev TraceEvent) { got.add(lp, ev) }
				}
				v, err := em.Run()
				if v != wantV || fmt.Sprint(err) != fmt.Sprint(wantErr) || em.Instrs != ref.instrs || !slices.Equal(em.Memory(), ref.mem) {
					t.Errorf("%s %s (traced %v): run (%d, %v, %d instrs) differs from the reference (%d, %v, %d instrs) or in memory",
						s.name, what, traced, v, err, em.Instrs, wantV, wantErr, ref.instrs)
				}
				if traced && got != want {
					t.Errorf("%s %s: trace %+v differs from the reference's %+v", s.name, what, got, want)
				}
				// Every frame but main's went back (main's own is in a retired
				// slab when the run outgrew the first one).
				if main := lp.Funcs[lp.Entry].NumRegs; wantErr == nil && len(em.slab) > main {
					t.Errorf("%s %s: %d words of frames outstanding after the run, main's frame is %d", s.name, what, len(em.slab), main)
				}
			}
			return want
		}
		full := compare("full run", 0, false)
		events += full.events

		// Fuel f runs f instructions and fails on the next, so fuel n-1
		// fails on main's return and fuel firstCallee-1 on the first
		// instruction a callee runs.
		n := full.events
		fuels := []int64{1, n / 2, n - 1}
		if full.firstCallee > 0 {
			fuels = append(fuels, full.firstCallee-1, full.lastCallee-1)
		}
		for _, f := range fuels {
			if f < 1 || f >= n {
				continue
			}
			compare(fmt.Sprintf("fuel %d of %d", f, n), f, false)
			// A stop polled first at instruction f+1 (modulo stopPoll), the
			// one fuel f fails on.
			compare(fmt.Sprintf("stop at %d of %d", f+1, n), stopPoll+f+1, true)
			cuts += 2
		}
	}
	t.Logf("compared %d trace events over %d programs and %d cut-short runs", events, len(subjects), cuts)
}

// TestEmulatorALUMatchesEvalALU runs every ALU opcode on every pair of
// edge values (0, ±1, the extremes, and the shift counts 63 and 64 beside
// −1) as a one-instruction program — two constants, the operation, a
// return — and holds the result to isa.EvalALU.
func TestEmulatorALUMatchesEvalALU(t *testing.T) {
	vals := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 63, 64}
	ops := 0
	for op := isa.Opcode(0); op < math.MaxUint8; op++ {
		if !isa.IsALU(op) {
			continue
		}
		ops++
		for _, a := range vals {
			for _, b := range vals {
				blk := &cfgir.Block{Instrs: []cfgir.Instr{
					{Kind: cfgir.KConst, Dst: 0, Imm: a},
					{Kind: cfgir.KConst, Dst: 1, Imm: b},
					{Kind: cfgir.KAlu, Op: op, Dst: 2, A: 0, B: 1},
				}, Term: cfgir.Term{Kind: cfgir.TRet, Val: 2}}
				main := &cfgir.Func{Name: "main", NumRegs: 3, Blocks: []*cfgir.Block{blk}}
				lp, err := Compile(&cfgir.Program{Funcs: []*cfgir.Func{main}, FuncIndex: map[string]int{"main": 0}})
				if err != nil {
					t.Fatal(err)
				}
				got, err := NewEmulator(lp, 0).Run()
				if want := isa.EvalALU(op, a, b); err != nil || got != want {
					t.Errorf("%s %d, %d: emulator %d (%v), EvalALU %d", op, a, b, got, err, want)
				}
			}
		}
	}
	if ops != 18 {
		t.Errorf("ran %d ALU opcodes, want 18", ops)
	}
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
