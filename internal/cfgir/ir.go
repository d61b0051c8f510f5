// Package cfgir defines the compiler's mid-level intermediate
// representation: a control-flow graph of basic blocks holding
// three-address code over virtual registers.
//
// Each source variable owns a dedicated (multiply-assigned) register;
// expression temporaries are fresh single-assignment registers. This is
// deliberately not SSA: the dataflow backend converts per-block using
// liveness, and the linear backend allocates registers directly, so phi
// nodes would buy nothing here.
//
// The package also provides the standard analyses (predecessors, reverse
// postorder, dominators, liveness, back-edge detection), a small optimizer
// (constant folding, local copy propagation and CSE, dead-code elimination,
// CFG simplification), and an IR interpreter used as correctness oracle #2.
package cfgir

import (
	"fmt"
	"strings"

	"wavescalar/internal/isa"
)

// Reg is a virtual register. NoReg means "no register" (e.g. store results).
type Reg int32

// NoReg marks an absent register operand.
const NoReg Reg = -1

// InstrKind classifies a non-terminator instruction.
type InstrKind uint8

const (
	KConst  InstrKind = iota // Dst = Imm
	KAlu                     // Dst = Op(A, B);  unary ops ignore B
	KLoad                    // Dst = mem[A]
	KStore                   // mem[A] = B
	KCall                    // Dst = Funcs[Callee](Args...)
	KSelect                  // Dst = A != 0 ? B : C   (φ; produced by if-conversion)
)

// Instr is one three-address instruction.
type Instr struct {
	Kind   InstrKind
	Op     isa.Opcode // KAlu only
	Dst    Reg
	A, B   Reg
	C      Reg // KSelect false operand
	Imm    int64
	Callee int
	Args   []Reg
}

// Uses appends the registers this instruction reads to buf and returns it.
func (in *Instr) Uses(buf []Reg) []Reg {
	switch in.Kind {
	case KConst:
	case KAlu:
		buf = append(buf, in.A)
		if in.Op.NumInputs() == 2 {
			buf = append(buf, in.B)
		}
	case KLoad:
		buf = append(buf, in.A)
	case KStore:
		buf = append(buf, in.A, in.B)
	case KCall:
		buf = append(buf, in.Args...)
	case KSelect:
		buf = append(buf, in.A, in.B, in.C)
	}
	return buf
}

// HasDst reports whether the instruction writes a register.
func (in *Instr) HasDst() bool { return in.Kind != KStore }

// Pure reports whether the instruction has no side effects and may be
// removed when its destination is dead.
func (in *Instr) Pure() bool {
	return in.Kind == KConst || in.Kind == KAlu || in.Kind == KSelect
}

// TermKind classifies a block terminator.
type TermKind uint8

const (
	TJump   TermKind = iota // goto Then
	TBranch                 // if Cond != 0 goto Then else goto Else
	TRet                    // return Val
)

// Term is a block terminator.
type Term struct {
	Kind TermKind
	Cond Reg // TBranch
	Then int
	Else int
	Val  Reg // TRet
}

// Block is a basic block.
type Block struct {
	ID     int
	Instrs []Instr
	Term   Term
}

// Succs returns the successor block IDs (0, 1, or 2 of them).
func (b *Block) Succs() []int {
	switch b.Term.Kind {
	case TJump:
		return []int{b.Term.Then}
	case TBranch:
		return []int{b.Term.Then, b.Term.Else}
	}
	return nil
}

// Func is one function in IR form.
type Func struct {
	Name    string
	Params  []Reg // registers holding incoming arguments
	NumRegs int
	Blocks  []*Block
	Entry   int

	// converged is set when Optimize's last round on the function left
	// every block's instructions and terminator as it found them (what the
	// passes report does not count, only their net edit) — the iteration
	// reached its fixpoint, the round bound did not cut it short — and
	// cleared by the methods of this package that edit a
	// function (NewReg, NewBlock, IfConvert). While it holds, running the
	// base passes again is a no-op, which is what lets OptimizeMemory leave
	// out the cleanup of a function the memory tier did not touch. A caller
	// that rewrites Blocks by hand after Optimize and wants that cleanup
	// calls Optimize again.
	converged bool
}

// NewReg allocates a fresh virtual register.
func (f *Func) NewReg() Reg {
	f.converged = false
	r := Reg(f.NumRegs)
	f.NumRegs++
	return r
}

// NewBlock appends an empty block and returns it.
func (f *Func) NewBlock() *Block {
	f.converged = false
	b := &Block{ID: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Program is a whole compiled module plus its data segment.
type Program struct {
	Funcs     []*Func
	FuncIndex map[string]int
	Globals   []isa.Global
	MemWords  int64
}

// FuncByName returns the function's index, or -1.
func (p *Program) FuncByName(name string) int {
	if i, ok := p.FuncIndex[name]; ok {
		return i
	}
	return -1
}

// InitialMemory builds the initial data segment.
func (p *Program) InitialMemory() []int64 {
	return isa.FillSegment(nil, p.MemWords, p.Globals)
}

// String renders the program as readable IR text (for tests and debugging).
func (p *Program) String() string {
	var sb strings.Builder
	for _, f := range p.Funcs {
		sb.WriteString(f.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// String renders one function.
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s(", f.Name)
	for i, r := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "r%d", r)
	}
	fmt.Fprintf(&sb, ") entry=b%d\n", f.Entry)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "b%d:\n", b.ID)
		for i := range b.Instrs {
			fmt.Fprintf(&sb, "  %s\n", b.Instrs[i].String())
		}
		fmt.Fprintf(&sb, "  %s\n", b.Term.String())
	}
	return sb.String()
}

// String renders one instruction.
func (in *Instr) String() string {
	switch in.Kind {
	case KConst:
		return fmt.Sprintf("r%d = %d", in.Dst, in.Imm)
	case KAlu:
		if in.Op.NumInputs() == 1 {
			return fmt.Sprintf("r%d = %s r%d", in.Dst, in.Op, in.A)
		}
		return fmt.Sprintf("r%d = %s r%d, r%d", in.Dst, in.Op, in.A, in.B)
	case KLoad:
		return fmt.Sprintf("r%d = load [r%d]", in.Dst, in.A)
	case KStore:
		return fmt.Sprintf("store [r%d] = r%d", in.A, in.B)
	case KCall:
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = fmt.Sprintf("r%d", a)
		}
		return fmt.Sprintf("r%d = call #%d(%s)", in.Dst, in.Callee, strings.Join(args, ", "))
	case KSelect:
		return fmt.Sprintf("r%d = select r%d ? r%d : r%d", in.Dst, in.A, in.B, in.C)
	}
	return "?"
}

// String renders a terminator.
func (t Term) String() string {
	switch t.Kind {
	case TJump:
		return fmt.Sprintf("jump b%d", t.Then)
	case TBranch:
		return fmt.Sprintf("branch r%d ? b%d : b%d", t.Cond, t.Then, t.Else)
	case TRet:
		return fmt.Sprintf("ret r%d", t.Val)
	}
	return "?"
}
