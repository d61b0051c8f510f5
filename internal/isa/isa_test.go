package isa

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestOpcodeStrings(t *testing.T) {
	for op := Opcode(0); op < opcodeCount; op++ {
		s := op.String()
		if s == "" || len(s) > 20 {
			t.Errorf("opcode %d has bad name %q", op, s)
		}
	}
	if got := Opcode(200).String(); got != "opcode(200)" {
		t.Errorf("unknown opcode name = %q", got)
	}
}

func TestNumInputsCoversAllOpcodes(t *testing.T) {
	for op := Opcode(0); op < opcodeCount; op++ {
		n := op.NumInputs()
		if n < 1 || n > 3 {
			t.Errorf("%s: NumInputs = %d, every opcode needs 1..3 inputs", op, n)
		}
	}
}

func TestTagAdvance(t *testing.T) {
	tag := Tag{Ctx: 3, Wave: 41}
	adv := tag.Advance()
	if adv.Ctx != 3 || adv.Wave != 42 {
		t.Errorf("Advance(%v) = %v", tag, adv)
	}
	if tag.Wave != 41 {
		t.Error("Advance mutated receiver")
	}
}

func TestEvalALUBasics(t *testing.T) {
	cases := []struct {
		op   Opcode
		a, b int64
		want int64
	}{
		{OpAdd, 2, 3, 5},
		{OpSub, 2, 3, -1},
		{OpMul, -4, 6, -24},
		{OpDiv, 7, 2, 3},
		{OpDiv, -7, 2, -3},
		{OpDiv, 5, 0, 0},
		{OpDiv, math.MinInt64, -1, math.MinInt64},
		{OpRem, 7, 3, 1},
		{OpRem, 7, 0, 0},
		{OpRem, math.MinInt64, -1, 0},
		{OpAnd, 0b1100, 0b1010, 0b1000},
		{OpOr, 0b1100, 0b1010, 0b1110},
		{OpXor, 0b1100, 0b1010, 0b0110},
		{OpShl, 1, 10, 1024},
		{OpShl, 1, 64, 1}, // shift count masked to 6 bits
		{OpShr, -8, 1, -4},
		{OpNeg, 9, 0, -9},
		{OpNot, 0, 0, -1},
		{OpEq, 4, 4, 1},
		{OpNe, 4, 4, 0},
		{OpLt, -1, 0, 1},
		{OpLe, 0, 0, 1},
		{OpGt, 1, 2, 0},
		{OpGe, 2, 2, 1},
	}
	for _, c := range cases {
		if got := EvalALU(c.op, c.a, c.b); got != c.want {
			t.Errorf("EvalALU(%s, %d, %d) = %d, want %d", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestEvalALUPanicsOnNonALU(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EvalALU(OpSteer, 1, 2)
}

func TestIsALUAgreesWithEval(t *testing.T) {
	for op := Opcode(0); op < opcodeCount; op++ {
		if IsALU(op) {
			_ = EvalALU(op, 3, 4) // must not panic
		}
	}
}

// Division identity: (a/b)*b + a%b == a for all b != 0 (including the
// overflow case, where both sides wrap identically).
func TestDivRemIdentity(t *testing.T) {
	prop := func(a, b int64) bool {
		if b == 0 {
			return EvalALU(OpDiv, a, b) == 0 && EvalALU(OpRem, a, b) == 0
		}
		q := EvalALU(OpDiv, a, b)
		r := EvalALU(OpRem, a, b)
		return q*b+r == a
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestComparisonsAreBoolean(t *testing.T) {
	prop := func(a, b int64) bool {
		for _, op := range []Opcode{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
			v := EvalALU(op, a, b)
			if v != 0 && v != 1 {
				return false
			}
		}
		// Trichotomy: exactly one of <, ==, > holds.
		return EvalALU(OpLt, a, b)+EvalALU(OpEq, a, b)+EvalALU(OpGt, a, b) == 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func validProgram() *Program {
	// main: trigger -> const 42 -> return
	f := Function{Name: "main", Params: []InstrID{0}, NumWaves: 1}
	f.Add(Instruction{Op: OpNop}, []Dest{{Instr: 1, Port: 0}}, nil, "pad 0") // trigger pad
	f.Add(Instruction{Op: OpConst, Imm: 42}, []Dest{{Instr: 2, Port: 0}}, nil, "")
	f.Add(Instruction{Op: OpReturn}, nil, nil, "")
	return &Program{Funcs: []Function{f}, Entry: 0, MemWords: 16,
		Globals: []Global{{Name: "g", Addr: 0, Size: 16}}}
}

// TestInstructionIsFlat: an instruction is a fixed record of at most 72
// bytes holding no pointer, so an instruction array is never scanned by
// the garbage collector.
func TestInstructionIsFlat(t *testing.T) {
	if n := unsafe.Sizeof(Instruction{}); n > 72 {
		t.Errorf("isa.Instruction is %d bytes, want at most 72", n)
	}
	var pointerFree func(reflect.Type) bool
	pointerFree = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if !pointerFree(ty.Field(i).Type) {
					return false
				}
			}
			return true
		case reflect.Array:
			return pointerFree(ty.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
			return true
		}
		return false
	}
	ty := reflect.TypeOf(Instruction{})
	for i := 0; i < ty.NumField(); i++ {
		if f := ty.Field(i); !pointerFree(f.Type) {
			t.Errorf("isa.Instruction.%s is a %s: it holds a pointer", f.Name, f.Type)
		}
	}
}

// TestOutReadsTheRun: Add lays each instruction's lists into the function's
// one edge array, true side first, and Out and Comment read them back.
func TestOutReadsTheRun(t *testing.T) {
	f := Function{Name: "f"}
	f.Add(Instruction{Op: OpNop}, []Dest{{Instr: 1, Port: 0}}, nil, "pad 0")
	f.Add(Instruction{Op: OpSteer}, []Dest{{Instr: 2, Port: 0}, {Instr: 0, Port: 0}}, []Dest{{Instr: 3, Port: 1}}, "")
	f.Add(Instruction{Op: OpReturn}, nil, nil, "wave exit")
	if len(f.Dests) != 4 || f.Instrs[1].DestLo != 1 || f.Instrs[2].DestLo != 4 {
		t.Fatalf("edge array %v, runs at %d and %d", f.Dests, f.Instrs[1].DestLo, f.Instrs[2].DestLo)
	}
	d, df := f.Out(&f.Instrs[1])
	if len(d) != 2 || d[1].Instr != 0 || len(df) != 1 || df[0].Port != 1 {
		t.Errorf("steer lists %v / %v", d, df)
	}
	if d, df := f.Out(&f.Instrs[2]); len(d)+len(df) != 0 {
		t.Errorf("return lists %v / %v", d, df)
	}
	if f.Comment(0) != "pad 0" || f.Comment(1) != "" || f.Comment(2) != "wave exit" {
		t.Errorf("notes %v", f.Comments)
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	if err := validProgram().Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Program)
	}{
		{"no functions", func(p *Program) { p.Funcs = nil }},
		{"bad entry", func(p *Program) { p.Entry = 5 }},
		{"dest out of range", func(p *Program) { p.Funcs[0].Dests[0].Instr = 99 }},
		{"port out of range", func(p *Program) { p.Funcs[0].Dests[0].Port = 3 }},
		{"run past the edge array", func(p *Program) { p.Funcs[0].Instrs[1].NDests = 2 }},
		{"run before the edge array", func(p *Program) { p.Funcs[0].Instrs[1].DestLo = -1 }},
		{"run starts past the edge array", func(p *Program) { p.Funcs[0].Instrs[2].DestLo = 3 }},
		{"note out of range", func(p *Program) { p.Funcs[0].Comments[0].Instr = 3 }},
		{"notes out of order", func(p *Program) {
			p.Funcs[0].Comments = append(p.Funcs[0].Comments, Note{Instr: 0, Text: "again"})
		}},
		{"no params", func(p *Program) { p.Funcs[0].Params = nil }},
		{"param pad not nop", func(p *Program) { p.Funcs[0].Params[0] = 1 }},
		{"false dests on non-steer", func(p *Program) {
			p.Funcs[0].Instrs[0].NDests, p.Funcs[0].Instrs[0].NFalse = 0, 1
		}},
		{"load without annotation", func(p *Program) { p.Funcs[0].Instrs[1].Op = OpLoad }},
		{"annotation on pure op", func(p *Program) {
			p.Funcs[0].Instrs[1].Mem = MemOrder{Kind: MemNop, Seq: 0, Pred: SeqStart, Succ: SeqEnd}
		}},
		{"global overlap", func(p *Program) {
			p.Globals = append(p.Globals, Global{Name: "h", Addr: 8, Size: 16})
			p.MemWords = 64
		}},
		{"global too big", func(p *Program) { p.Globals[0].Size = 64 }},
		{"memory too big", func(p *Program) { p.MemWords = MaxMemWords + 1 }},
		{"too many initializers", func(p *Program) { p.Globals[0].Init = make([]int64, 20) }},
		{"wave out of range", func(p *Program) { p.Funcs[0].Instrs[2].Wave = 7 }},
		{"duplicate memory seq", func(p *Program) {
			p.Funcs[0].TouchesMemory = true
			p.Funcs[0].Instrs[1].Op = OpMemNop
			p.Funcs[0].Instrs[1].Mem = MemOrder{Kind: MemNop, Seq: 0, Pred: SeqStart, Succ: 0}
			p.Funcs[0].Instrs[2].Mem = MemOrder{Kind: MemEnd, Seq: 0, Pred: 0, Succ: SeqEnd}
		}},
	}
	for _, c := range cases {
		p := validProgram()
		c.mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a malformed program", c.name)
		}
	}
}

func TestLinks(t *testing.T) {
	const W, S, E = SeqWildcard, SeqStart, SeqEnd
	m := func(pred, seq, succ int32) MemOrder { return MemOrder{Kind: MemNop, Seq: seq, Pred: pred, Succ: succ} }
	for _, c := range []struct {
		a, b MemOrder
		want bool
	}{
		{WaveStart, m(S, 4, W), true},  // the wave's first operation
		{WaveStart, m(W, 4, E), false}, // a ? is never a start
		{m(S, 1, 4), m(W, 4, E), true}, // a's Succ names b
		{m(S, 1, W), m(1, 4, E), true}, // b's Pred names a
		{m(S, 1, W), m(W, 4, E), false},
		{m(S, 1, E), m(W, 4, E), false},
		{m(S, 1, 5), m(W, 4, E), false},
	} {
		if got := c.a.Links(c.b); got != c.want {
			t.Errorf("%v.Links(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// chainProgram is main with one MEMORY-NOP per annotation, all in wave 0.
func chainProgram(ms ...MemOrder) *Program {
	f := Function{Name: "main", Params: []InstrID{0}, NumWaves: 1}
	f.Add(Instruction{Op: OpNop}, nil, nil, "pad 0")
	for _, m := range ms {
		m.Kind = MemNop
		f.Add(Instruction{Op: OpMemNop, Mem: m}, nil, nil, "")
	}
	f.Add(Instruction{Op: OpReturn}, nil, nil, "")
	return &Program{Funcs: []Function{f}}
}

// TestValidateChains: Validate accepts a two-path wave whose branch and
// join name each other only from one side (? on both), and refuses a
// wave that breaks any one of its five chain rules, naming the function,
// the wave and the annotations involved.
func TestValidateChains(t *testing.T) {
	const W, S, E = SeqWildcard, SeqStart, SeqEnd
	m := func(pred, seq, succ int32) MemOrder { return MemOrder{Seq: seq, Pred: pred, Succ: succ} }
	diamond := []MemOrder{m(S, 0, W), m(0, 1, 3), m(0, 2, 3), m(W, 3, E)}
	if err := chainProgram(diamond...).Validate(); err != nil {
		t.Fatalf("two-path wave refused: %v", err)
	}
	for _, c := range []struct {
		rule string
		ms   []MemOrder
		want string
	}{
		{"unique", []MemOrder{m(S, 0, 1), m(0, 1, E), m(0, 1, E)}, "main wave 0: {nop 0.1.$} and {nop 0.1.$} share sequence number 1"},
		{"names an operation", []MemOrder{m(S, 0, W), m(0, 1, 9), m(0, 2, 3), m(W, 3, E)}, "main wave 0: {nop 0.1.9} succ names nothing"},
		{"ends agree", []MemOrder{m(S, 0, W), m(0, 1, 3), m(0, 2, 3), m(2, 3, E)}, "main wave 0: {nop 0.1.3} -> {nop 2.3.$} disagree"},
		{"no ? meets ?", []MemOrder{m(S, 0, W), m(W, 1, E)}, "main wave 0: {nop ^.0.?} lies on no path from ^ to $"},
		{"on a ^ to $ path", []MemOrder{m(S, 0, E), m(2, 1, 2), m(1, 2, 1)}, "main wave 0: {nop 2.1.2} lies on no path from ^ to $"},
	} {
		err := chainProgram(c.ms...).Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want %q", c.rule, err, c.want)
		}
	}
}

func TestInitialMemory(t *testing.T) {
	p := validProgram()
	p.Globals[0].Init = []int64{7, 8}
	m := p.InitialMemory()
	if len(m) != 16 || m[0] != 7 || m[1] != 8 || m[2] != 0 {
		t.Fatalf("InitialMemory = %v", m)
	}
}

func TestLookupHelpers(t *testing.T) {
	p := validProgram()
	if p.FuncByName("main") == nil || p.FuncByName("nope") != nil {
		t.Error("FuncByName broken")
	}
	if n := p.NumInstrs(); n != 3 {
		t.Errorf("NumInstrs = %d, want 3", n)
	}
}

func TestMemOrderString(t *testing.T) {
	m := MemOrder{Kind: MemLoad, Seq: 4, Pred: SeqStart, Succ: SeqWildcard}
	if got := m.String(); got != "{load ^.4.?}" {
		t.Errorf("MemOrder.String() = %q", got)
	}
	if (MemOrder{}).String() != "" {
		t.Error("zero MemOrder should render empty")
	}
}
