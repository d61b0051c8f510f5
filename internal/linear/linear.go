// Package linear defines the von Neumann baseline ISA: a linear, RISC-like
// instruction set with a program counter, compiled from the same CFG IR as
// the WaveScalar steer binary (if-converted IR, whose selects have no linear
// form, is refused). The out-of-order superscalar model (internal/ooo)
// executes this ISA; it is the "aggressive superscalar" the MICRO 2003
// evaluation compares the WaveCache against.
//
// A program has one form. Compile emits each function's Code, 24-byte
// instructions with an opcode per ALU operation, and the argument copies of
// its calls; the emulator, the timing model and Func.Disasm all read it.
//
// The machine uses per-activation virtual register frames (register
// windows): a CALL gives the callee a fresh frame and copies argument
// registers, so no spill traffic is modeled. This idealization favors the
// baseline and is documented in DESIGN.md.
package linear

import (
	"fmt"
	"strings"
	"sync/atomic"

	"wavescalar/internal/cfgir"
	"wavescalar/internal/isa"
)

// Op enumerates linear opcodes. Each ALU operation has one of its own,
// LAdd through LGe in isa order, so the emulator's dispatch is a single
// switch.
type Op uint8

const (
	LConst Op = iota // rd = imm
	LAdd             // LAdd through LGe: rd = ALU(ra, rb)
	LSub
	LMul
	LDiv
	LRem
	LAnd
	LOr
	LXor
	LShl
	LShr
	LNeg
	LNot
	LEq
	LNe
	LLt
	LLe
	LGt
	LGe
	LLoad   // rd = mem[ra]
	LStore  // mem[ra] = rb
	LJump   // pc = imm
	LBranch // if ra != 0 pc = imm (else fall through)
	LCall   // rd = call Funcs[imm](the caller registers of Moves[ra:rb])
	LRet    // return ra
)

// ALU returns the isa operation of an opcode from LAdd through LGe.
func (o Op) ALU() isa.Opcode { return isa.OpAdd + isa.Opcode(o-LAdd) }

// Instr is one linear instruction, 24 bytes. Register operands index the
// function's virtual frame; Imm is the constant (LConst), the instruction
// index within the function (LJump, LBranch) or the callee (LCall). An
// LCall's Ra and Rb are not registers but the bounds of its argument copies
// in the function's Moves.
type Instr struct {
	Op         Op
	Rd, Ra, Rb cfgir.Reg
	Imm        int64
}

// Func is one linear function.
type Func struct {
	Name    string
	Params  []cfgir.Reg
	NumRegs int
	Code    []Instr

	// Moves holds the argument copies of the function's calls, pairs of
	// (callee parameter, caller register) in parameter order: an LCall's are
	// Moves[Ra:Rb].
	Moves []cfgir.Reg
}

// Disasm renders the instruction at pc.
func (f *Func) Disasm(pc int) string {
	in := &f.Code[pc]
	switch in.Op {
	case LConst:
		return fmt.Sprintf("r%d = %d", in.Rd, in.Imm)
	case LLoad:
		return fmt.Sprintf("r%d = [r%d]", in.Rd, in.Ra)
	case LStore:
		return fmt.Sprintf("[r%d] = r%d", in.Ra, in.Rb)
	case LJump:
		return fmt.Sprintf("jump @%d", in.Imm)
	case LBranch:
		return fmt.Sprintf("branch r%d @%d", in.Ra, in.Imm)
	case LCall:
		var parts []string
		for i := in.Ra + 1; i < in.Rb; i += 2 {
			parts = append(parts, fmt.Sprintf("r%d", f.Moves[i]))
		}
		return fmt.Sprintf("r%d = call #%d(%s)", in.Rd, in.Imm, strings.Join(parts, ", "))
	case LRet:
		return fmt.Sprintf("ret r%d", in.Ra)
	}
	alu := in.Op.ALU()
	if alu.NumInputs() == 1 {
		return fmt.Sprintf("r%d = %s r%d", in.Rd, alu, in.Ra)
	}
	return fmt.Sprintf("r%d = %s r%d, r%d", in.Rd, alu, in.Ra, in.Rb)
}

// Program is a compiled linear module.
type Program struct {
	Funcs    []*Func
	Entry    int
	Globals  []isa.Global
	MemWords int64
}

// InitialMemory builds the data segment.
func (p *Program) InitialMemory() []int64 {
	return isa.FillSegment(nil, p.MemWords, p.Globals)
}

// Compile lowers CFG IR to linear code. Blocks are laid out in their
// (reverse postorder) numbering; branches fall through to the else side
// when possible. The input is the IR the steer binary lowers: if-converted
// IR, whose selects have no linear form, is an error.
func Compile(p *cfgir.Program) (*Program, error) {
	entry := p.FuncByName("main")
	if entry < 0 {
		return nil, fmt.Errorf("linear: no main function")
	}
	out := &Program{Entry: entry, Globals: p.Globals, MemWords: p.MemWords}
	for _, f := range p.Funcs {
		lf, err := compileFunc(f, p.Funcs)
		if err != nil {
			return nil, err
		}
		out.Funcs = append(out.Funcs, lf)
	}
	return out, nil
}

// compileFunc lowers f; funcs is the program's functions, whose parameter
// lists the calls copy into.
func compileFunc(f *cfgir.Func, funcs []*cfgir.Func) (*Func, error) {
	lf := &Func{Name: f.Name, Params: f.Params, NumRegs: f.NumRegs}
	blockStart := make([]int, len(f.Blocks))
	// First pass: emit with placeholder targets.
	type patch struct {
		at    int
		block int
	}
	var patches []patch
	for bi, b := range f.Blocks {
		blockStart[bi] = len(lf.Code)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Kind {
			case cfgir.KConst:
				lf.Code = append(lf.Code, Instr{Op: LConst, Rd: in.Dst, Imm: in.Imm})
			case cfgir.KAlu:
				if !isa.IsALU(in.Op) {
					return nil, fmt.Errorf("linear: %s: %s is not an ALU operation", f.Name, in.Op)
				}
				lf.Code = append(lf.Code, Instr{Op: LAdd + Op(in.Op-isa.OpAdd), Rd: in.Dst, Ra: in.A, Rb: in.B})
			case cfgir.KSelect:
				return nil, fmt.Errorf("linear: %s: a select in if-converted IR, which has no linear form", f.Name)
			case cfgir.KLoad:
				lf.Code = append(lf.Code, Instr{Op: LLoad, Rd: in.Dst, Ra: in.A})
			case cfgir.KStore:
				lf.Code = append(lf.Code, Instr{Op: LStore, Ra: in.A, Rb: in.B})
			case cfgir.KCall:
				from := cfgir.Reg(len(lf.Moves))
				for j, a := range in.Args {
					lf.Moves = append(lf.Moves, funcs[in.Callee].Params[j], a)
				}
				lf.Code = append(lf.Code, Instr{Op: LCall, Rd: in.Dst, Ra: from, Rb: cfgir.Reg(len(lf.Moves)), Imm: int64(in.Callee)})
			default:
				return nil, fmt.Errorf("linear: unknown IR instruction kind %d", in.Kind)
			}
		}
		switch b.Term.Kind {
		case cfgir.TRet:
			lf.Code = append(lf.Code, Instr{Op: LRet, Ra: b.Term.Val})
		case cfgir.TJump:
			if b.Term.Then != bi+1 {
				patches = append(patches, patch{at: len(lf.Code), block: b.Term.Then})
				lf.Code = append(lf.Code, Instr{Op: LJump})
			}
		case cfgir.TBranch:
			patches = append(patches, patch{at: len(lf.Code), block: b.Term.Then})
			lf.Code = append(lf.Code, Instr{Op: LBranch, Ra: b.Term.Cond})
			if b.Term.Else != bi+1 {
				patches = append(patches, patch{at: len(lf.Code), block: b.Term.Else})
				lf.Code = append(lf.Code, Instr{Op: LJump})
			}
		}
	}
	for _, pt := range patches {
		lf.Code[pt.at].Imm = int64(blockStart[pt.block])
	}
	return lf, nil
}

// ErrFuel reports instruction-budget exhaustion.
var ErrFuel = fmt.Errorf("linear: execution exceeded instruction budget")

// ErrStopped reports that Emulator.Stop was raised while the program ran.
var ErrStopped = fmt.Errorf("linear: execution stopped on request")

// stopPoll is how many instructions run between two looks at
// Emulator.Stop: the flag is read when the low bits of the remaining budget
// are zero, so an instruction pays one more test of a register it already
// holds for the fuel check and the atomic load happens once in 2^18.
const stopPoll = 1 << 18

// Emulator executes linear programs functionally (correctness oracle #4)
// and can emit a dynamic trace for the out-of-order timing model.
type Emulator struct {
	prog *Program
	mem  []int64
	fuel int64
	// slab is where register frames come from: its length is the frames of
	// the live activations that were taken from it, innermost last. See
	// frame.
	slab []int64

	// Instrs counts executed dynamic instructions.
	Instrs int64

	// Trace, when non-nil, receives every executed instruction.
	Trace func(ev TraceEvent)

	// Stop, when non-nil, is a request another goroutine may raise while Run
	// executes: Run returns ErrStopped within stopPoll instructions of its
	// being set.
	Stop *atomic.Bool
}

// TraceEvent describes one dynamic instruction for the timing model: the
// function and pc it ran at, and what the instruction did that the program
// text does not say. Activations are not numbered: a consumer that needs to
// tell them apart follows the LCall and LRet events.
type TraceEvent struct {
	Func  int
	PC    int
	Instr *Instr // &Code[PC] of Funcs[Func]
	// Taken reports a conditional branch's outcome.
	Taken bool
	// Addr is the effective address of loads and stores.
	Addr int64
}

// NewEmulator prepares an emulator. fuel bounds dynamic instructions
// (0 = 2G).
func NewEmulator(p *Program, fuel int64) *Emulator {
	if fuel == 0 {
		fuel = 2_000_000_000
	}
	return &Emulator{prog: p, mem: p.InitialMemory(), fuel: fuel}
}

// Memory exposes the live memory image.
func (e *Emulator) Memory() []int64 { return e.mem }

// Run executes main.
func (e *Emulator) Run() (int64, error) {
	e.slab = e.slab[:0]
	return e.call(e.prog.Entry, e.frame(e.prog.Entry))
}

// frame takes a zeroed register frame for function fi from the end of the
// slab. A slab with no room left is replaced by one twice its size, and the
// frames already handed out stay where they are, in the slab they came from:
// a frame never moves, so an activation holds one slice of registers for as
// long as it runs.
func (e *Emulator) frame(fi int) []int64 {
	n := e.prog.Funcs[fi].NumRegs
	if len(e.slab)+n > cap(e.slab) {
		e.slab = make([]int64, 0, max(2*cap(e.slab), n, 1024))
	}
	fp := len(e.slab)
	e.slab = e.slab[:fp+n]
	regs := e.slab[fp : fp+n : fp+n]
	clear(regs)
	return regs
}

// call runs function fi on regs, a frame the caller took and put the
// arguments in. It builds a TraceEvent only when Trace is set.
func (e *Emulator) call(fi int, regs []int64) (int64, error) {
	f := e.prog.Funcs[fi]
	code := f.Code
	pc := 0
	for {
		if uint(pc) >= uint(len(code)) {
			return 0, fmt.Errorf("linear: %s: pc %d out of range", f.Name, pc)
		}
		in := &code[pc]
		e.Instrs++
		e.fuel--
		if e.fuel < 0 {
			return 0, ErrFuel
		}
		if e.fuel&(stopPoll-1) == 0 && e.Stop != nil && e.Stop.Load() {
			return 0, ErrStopped
		}
		next := pc + 1
		switch in.Op {
		case LConst:
			regs[in.Rd] = in.Imm
		case LAdd:
			regs[in.Rd] = regs[in.Ra] + regs[in.Rb]
		case LSub:
			regs[in.Rd] = regs[in.Ra] - regs[in.Rb]
		case LMul:
			regs[in.Rd] = regs[in.Ra] * regs[in.Rb]
		case LDiv:
			regs[in.Rd] = isa.Div(regs[in.Ra], regs[in.Rb])
		case LRem:
			regs[in.Rd] = isa.Rem(regs[in.Ra], regs[in.Rb])
		case LAnd:
			regs[in.Rd] = regs[in.Ra] & regs[in.Rb]
		case LOr:
			regs[in.Rd] = regs[in.Ra] | regs[in.Rb]
		case LXor:
			regs[in.Rd] = regs[in.Ra] ^ regs[in.Rb]
		case LShl:
			regs[in.Rd] = isa.Shl(regs[in.Ra], regs[in.Rb])
		case LShr:
			regs[in.Rd] = isa.Shr(regs[in.Ra], regs[in.Rb])
		case LNeg:
			regs[in.Rd] = -regs[in.Ra]
		case LNot:
			regs[in.Rd] = ^regs[in.Ra]
		case LEq:
			regs[in.Rd] = isa.Bool(regs[in.Ra] == regs[in.Rb])
		case LNe:
			regs[in.Rd] = isa.Bool(regs[in.Ra] != regs[in.Rb])
		case LLt:
			regs[in.Rd] = isa.Bool(regs[in.Ra] < regs[in.Rb])
		case LLe:
			regs[in.Rd] = isa.Bool(regs[in.Ra] <= regs[in.Rb])
		case LGt:
			regs[in.Rd] = isa.Bool(regs[in.Ra] > regs[in.Rb])
		case LGe:
			regs[in.Rd] = isa.Bool(regs[in.Ra] >= regs[in.Rb])
		case LLoad:
			addr := regs[in.Ra]
			if uint64(addr) >= uint64(len(e.mem)) {
				return 0, fmt.Errorf("linear: %s: load address %d out of range", f.Name, addr)
			}
			regs[in.Rd] = e.mem[addr]
			if e.Trace != nil {
				e.Trace(TraceEvent{Func: fi, PC: pc, Instr: in, Addr: addr})
			}
			pc = next
			continue
		case LStore:
			addr := regs[in.Ra]
			if uint64(addr) >= uint64(len(e.mem)) {
				return 0, fmt.Errorf("linear: %s: store address %d out of range", f.Name, addr)
			}
			e.mem[addr] = regs[in.Rb]
			if e.Trace != nil {
				e.Trace(TraceEvent{Func: fi, PC: pc, Instr: in, Addr: addr})
			}
			pc = next
			continue
		case LJump:
			next = int(in.Imm)
		case LBranch:
			if regs[in.Ra] != 0 {
				if e.Trace != nil {
					e.Trace(TraceEvent{Func: fi, PC: pc, Instr: in, Taken: true})
				}
				pc = int(in.Imm)
				continue
			}
		case LCall:
			callee := int(in.Imm)
			if e.Trace != nil {
				e.Trace(TraceEvent{Func: fi, PC: pc, Instr: in})
			}
			args := e.frame(callee)
			slab, mark := cap(e.slab), len(e.slab)-len(args)
			moves := f.Moves[in.Ra:in.Rb]
			for i := 0; i+1 < len(moves); i += 2 {
				args[moves[i]] = regs[moves[i+1]]
			}
			v, err := e.call(callee, args)
			if err != nil {
				return 0, err
			}
			// The callee's frame goes back — unless a larger slab (capacity
			// names a slab: each is larger than the last) took over somewhere
			// below this call, in which case the frame sits in a retired slab
			// and the new one is empty again already.
			if cap(e.slab) == slab {
				e.slab = e.slab[:mark]
			}
			regs[in.Rd] = v
			pc = next
			continue
		case LRet:
			if e.Trace != nil {
				e.Trace(TraceEvent{Func: fi, PC: pc, Instr: in})
			}
			return regs[in.Ra], nil
		}
		if e.Trace != nil {
			e.Trace(TraceEvent{Func: fi, PC: pc, Instr: in})
		}
		pc = next
	}
}
