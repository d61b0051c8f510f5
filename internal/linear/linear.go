// Package linear defines the von Neumann baseline ISA: a linear, RISC-like
// instruction set with a program counter, compiled from the same CFG IR as
// the WaveScalar binaries. The out-of-order superscalar model (internal/ooo)
// executes this ISA; it is the "aggressive superscalar" the MICRO 2003
// evaluation compares the WaveCache against.
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

// Op enumerates linear opcodes.
type Op uint8

const (
	LConst  Op = iota // rd = imm
	LAlu              // rd = ALU(ra, rb)
	LSelect           // rd = ra != 0 ? rb : rc
	LLoad             // rd = mem[ra]
	LStore            // mem[ra] = rb
	LJump             // pc = Target
	LBranch           // if ra != 0 pc = Target (else fall through)
	LCall             // rd = call Funcs[Callee](Args...)
	LRet              // return ra
)

func (o Op) String() string {
	switch o {
	case LConst:
		return "const"
	case LAlu:
		return "alu"
	case LSelect:
		return "select"
	case LLoad:
		return "load"
	case LStore:
		return "store"
	case LJump:
		return "jump"
	case LBranch:
		return "branch"
	case LCall:
		return "call"
	case LRet:
		return "ret"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Instr is one linear instruction. Register operands index the function's
// virtual frame.
type Instr struct {
	Op     Op
	Alu    isa.Opcode // LAlu
	Rd     cfgir.Reg
	Ra, Rb cfgir.Reg
	Rc     cfgir.Reg // LSelect
	Imm    int64
	Target int // LJump/LBranch: instruction index within the function
	Callee int
	Args   []cfgir.Reg
}

// String renders an instruction.
func (in *Instr) String() string {
	switch in.Op {
	case LConst:
		return fmt.Sprintf("r%d = %d", in.Rd, in.Imm)
	case LAlu:
		if in.Alu.NumInputs() == 1 {
			return fmt.Sprintf("r%d = %s r%d", in.Rd, in.Alu, in.Ra)
		}
		return fmt.Sprintf("r%d = %s r%d, r%d", in.Rd, in.Alu, in.Ra, in.Rb)
	case LSelect:
		return fmt.Sprintf("r%d = r%d ? r%d : r%d", in.Rd, in.Ra, in.Rb, in.Rc)
	case LLoad:
		return fmt.Sprintf("r%d = [r%d]", in.Rd, in.Ra)
	case LStore:
		return fmt.Sprintf("[r%d] = r%d", in.Ra, in.Rb)
	case LJump:
		return fmt.Sprintf("jump @%d", in.Target)
	case LBranch:
		return fmt.Sprintf("branch r%d @%d", in.Ra, in.Target)
	case LCall:
		parts := make([]string, len(in.Args))
		for i, a := range in.Args {
			parts[i] = fmt.Sprintf("r%d", a)
		}
		return fmt.Sprintf("r%d = call #%d(%s)", in.Rd, in.Callee, strings.Join(parts, ", "))
	case LRet:
		return fmt.Sprintf("ret r%d", in.Ra)
	}
	return "?"
}

// Func is one linear function.
type Func struct {
	Name    string
	Params  []cfgir.Reg
	NumRegs int
	Code    []Instr
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
// when possible.
func Compile(p *cfgir.Program) (*Program, error) {
	entry := p.FuncByName("main")
	if entry < 0 {
		return nil, fmt.Errorf("linear: no main function")
	}
	out := &Program{Entry: entry, Globals: p.Globals, MemWords: p.MemWords}
	for _, f := range p.Funcs {
		lf, err := compileFunc(f)
		if err != nil {
			return nil, err
		}
		out.Funcs = append(out.Funcs, lf)
	}
	return out, nil
}

func compileFunc(f *cfgir.Func) (*Func, error) {
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
				lf.Code = append(lf.Code, Instr{Op: LAlu, Alu: in.Op, Rd: in.Dst, Ra: in.A, Rb: in.B})
			case cfgir.KSelect:
				lf.Code = append(lf.Code, Instr{Op: LSelect, Rd: in.Dst, Ra: in.A, Rb: in.B, Rc: in.C})
			case cfgir.KLoad:
				lf.Code = append(lf.Code, Instr{Op: LLoad, Rd: in.Dst, Ra: in.A})
			case cfgir.KStore:
				lf.Code = append(lf.Code, Instr{Op: LStore, Ra: in.A, Rb: in.B})
			case cfgir.KCall:
				lf.Code = append(lf.Code, Instr{Op: LCall, Rd: in.Dst, Callee: in.Callee,
					Args: append([]cfgir.Reg(nil), in.Args...)})
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
		lf.Code[pt.at].Target = blockStart[pt.block]
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

// TraceEvent describes one dynamic instruction for the timing model.
type TraceEvent struct {
	Func  int
	PC    int
	Frame int64 // activation number (register window id)
	Instr *Instr
	// Taken reports a conditional branch's outcome.
	Taken bool
	// Addr is the effective address of loads and stores.
	Addr int64
	// CalleeFrame is the frame id created by an LCall.
	CalleeFrame int64
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
	frames := int64(0)
	e.slab = e.slab[:0]
	return e.call(e.prog.Entry, e.frame(e.prog.Entry), &frames)
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
// arguments in.
func (e *Emulator) call(fi int, regs []int64, frames *int64) (int64, error) {
	f := e.prog.Funcs[fi]
	frame := *frames
	*frames++
	pc := 0
	for {
		if pc < 0 || pc >= len(f.Code) {
			return 0, fmt.Errorf("linear: %s: pc %d out of range", f.Name, pc)
		}
		in := &f.Code[pc]
		e.Instrs++
		e.fuel--
		if e.fuel < 0 {
			return 0, ErrFuel
		}
		if e.fuel&(stopPoll-1) == 0 && e.Stop != nil && e.Stop.Load() {
			return 0, ErrStopped
		}
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
			ev.CalleeFrame = *frames
			if e.Trace != nil {
				e.Trace(ev)
			}
			args := e.frame(in.Callee)
			slab, mark := cap(e.slab), len(e.slab)-len(args)
			for i, pr := range e.prog.Funcs[in.Callee].Params {
				args[pr] = regs[in.Args[i]]
			}
			v, err := e.call(in.Callee, args, frames)
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
				e.Trace(ev)
			}
			return regs[in.Ra], nil
		}
		if e.Trace != nil {
			e.Trace(ev)
		}
		pc = next
	}
}
