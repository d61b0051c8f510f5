package isa

import (
	"math"
	"testing"
	"testing/quick"
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
	f := Function{
		Name: "main",
		Instrs: []Instruction{
			{Op: OpNop, Dests: []Dest{{Instr: 1, Port: 0}}}, // trigger pad
			{Op: OpConst, Imm: 42, Dests: []Dest{{Instr: 2, Port: 0}}},
			{Op: OpReturn},
		},
		Params:   []InstrID{0},
		NumWaves: 1,
	}
	return &Program{Funcs: []Function{f}, Entry: 0, MemWords: 16,
		Globals: []Global{{Name: "g", Addr: 0, Size: 16}}}
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
		{"dest out of range", func(p *Program) { p.Funcs[0].Instrs[0].Dests[0].Instr = 99 }},
		{"port out of range", func(p *Program) { p.Funcs[0].Instrs[0].Dests[0].Port = 3 }},
		{"no params", func(p *Program) { p.Funcs[0].Params = nil }},
		{"param pad not nop", func(p *Program) { p.Funcs[0].Params[0] = 1 }},
		{"false dests on non-steer", func(p *Program) {
			p.Funcs[0].Instrs[1].DestsFalse = []Dest{{Instr: 2, Port: 0}}
		}},
		{"load without annotation", func(p *Program) {
			p.Funcs[0].Instrs[1] = Instruction{Op: OpLoad, Dests: []Dest{{Instr: 2, Port: 0}}}
		}},
		{"annotation on pure op", func(p *Program) {
			p.Funcs[0].Instrs[1].Mem = MemOrder{Kind: MemNop, Seq: 0, Pred: SeqStart, Succ: SeqEnd}
		}},
		{"global overlap", func(p *Program) {
			p.Globals = append(p.Globals, Global{Name: "h", Addr: 8, Size: 16})
			p.MemWords = 64
		}},
		{"global too big", func(p *Program) { p.Globals[0].Size = 64 }},
		{"too many initializers", func(p *Program) { p.Globals[0].Init = make([]int64, 20) }},
		{"wave out of range", func(p *Program) { p.Funcs[0].Instrs[2].Wave = 7 }},
		{"duplicate memory seq", func(p *Program) {
			p.Funcs[0].TouchesMemory = true
			p.Funcs[0].Instrs[1] = Instruction{Op: OpMemNop,
				Mem:   MemOrder{Kind: MemNop, Seq: 0, Pred: SeqStart, Succ: 0},
				Dests: []Dest{{Instr: 2, Port: 0}}}
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
