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

	// dec is Code as the emulator dispatches it, one entry per instruction
	// (see dinstr), and moves holds the argument copies of its calls. Compile
	// builds both; emulators share them and only read them.
	dec   []dinstr
	moves []int32
}

// dop is a decoded opcode: a linear Op, with LAlu split into one opcode
// per ALU operation so the emulator's dispatch is a single switch.
type dop uint8

const (
	dConst dop = iota
	dAdd
	dSub
	dMul
	dDiv
	dRem
	dAnd
	dOr
	dXor
	dShl
	dShr
	dNeg
	dNot
	dEq
	dNe
	dLt
	dLe
	dGt
	dGe
	dSelect
	dLoad
	dStore
	dJump
	dBranch
	dCall
	dRet
)

// aluDop maps each ALU opcode to its decoded opcode.
var aluDop = map[isa.Opcode]dop{
	isa.OpAdd: dAdd, isa.OpSub: dSub, isa.OpMul: dMul, isa.OpDiv: dDiv, isa.OpRem: dRem,
	isa.OpAnd: dAnd, isa.OpOr: dOr, isa.OpXor: dXor, isa.OpShl: dShl, isa.OpShr: dShr,
	isa.OpNeg: dNeg, isa.OpNot: dNot, isa.OpEq: dEq, isa.OpNe: dNe,
	isa.OpLt: dLt, isa.OpLe: dLe, isa.OpGt: dGt, isa.OpGe: dGe,
}

// dinstr is one decoded instruction, 32 bytes: the Instr's registers and
// one int64 that is the constant (dConst), the target (dJump, dBranch) or
// the callee (dCall). A call's argument copies are moves[ra:rb], pairs of
// (callee parameter register, caller register).
type dinstr struct {
	op             dop
	rd, ra, rb, rc int32
	imm            int64
}

// decode builds f.dec and f.moves; funcs is the program's functions, whose
// parameter lists the calls copy into.
func (f *Func) decode(funcs []*Func) error {
	f.dec = make([]dinstr, len(f.Code))
	for pc := range f.Code {
		in := &f.Code[pc]
		d := dinstr{rd: int32(in.Rd), ra: int32(in.Ra), rb: int32(in.Rb), rc: int32(in.Rc)}
		switch in.Op {
		case LConst:
			d.op, d.imm = dConst, in.Imm
		case LAlu:
			op, ok := aluDop[in.Alu]
			if !ok {
				return fmt.Errorf("linear: %s: pc %d: %s is not an ALU operation", f.Name, pc, in.Alu)
			}
			d.op = op
		case LSelect:
			d.op = dSelect
		case LLoad:
			d.op = dLoad
		case LStore:
			d.op = dStore
		case LJump:
			d.op, d.imm = dJump, int64(in.Target)
		case LBranch:
			d.op, d.imm = dBranch, int64(in.Target)
		case LCall:
			params := funcs[in.Callee].Params
			d.op, d.imm, d.ra = dCall, int64(in.Callee), int32(len(f.moves))
			for i, a := range in.Args {
				f.moves = append(f.moves, int32(params[i]), int32(a))
			}
			d.rb = int32(len(f.moves))
		case LRet:
			d.op = dRet
		default:
			return fmt.Errorf("linear: %s: pc %d: unknown opcode %s", f.Name, pc, in.Op)
		}
		f.dec[pc] = d
	}
	return nil
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
	for _, lf := range out.Funcs {
		if err := lf.decode(out.Funcs); err != nil {
			return nil, err
		}
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
// arguments in. It dispatches the decoded program and builds a TraceEvent
// only when Trace is set.
func (e *Emulator) call(fi int, regs []int64, frames *int64) (int64, error) {
	f := e.prog.Funcs[fi]
	code := f.dec
	frame := *frames
	*frames++
	pc := 0
	for {
		if uint(pc) >= uint(len(code)) {
			return 0, fmt.Errorf("linear: %s: pc %d out of range", f.Name, pc)
		}
		d := &code[pc]
		e.Instrs++
		e.fuel--
		if e.fuel < 0 {
			return 0, ErrFuel
		}
		if e.fuel&(stopPoll-1) == 0 && e.Stop != nil && e.Stop.Load() {
			return 0, ErrStopped
		}
		next := pc + 1
		switch d.op {
		case dConst:
			regs[d.rd] = d.imm
		case dAdd:
			regs[d.rd] = regs[d.ra] + regs[d.rb]
		case dSub:
			regs[d.rd] = regs[d.ra] - regs[d.rb]
		case dMul:
			regs[d.rd] = regs[d.ra] * regs[d.rb]
		case dDiv:
			regs[d.rd] = isa.Div(regs[d.ra], regs[d.rb])
		case dRem:
			regs[d.rd] = isa.Rem(regs[d.ra], regs[d.rb])
		case dAnd:
			regs[d.rd] = regs[d.ra] & regs[d.rb]
		case dOr:
			regs[d.rd] = regs[d.ra] | regs[d.rb]
		case dXor:
			regs[d.rd] = regs[d.ra] ^ regs[d.rb]
		case dShl:
			regs[d.rd] = isa.Shl(regs[d.ra], regs[d.rb])
		case dShr:
			regs[d.rd] = isa.Shr(regs[d.ra], regs[d.rb])
		case dNeg:
			regs[d.rd] = -regs[d.ra]
		case dNot:
			regs[d.rd] = ^regs[d.ra]
		case dEq:
			regs[d.rd] = isa.Bool(regs[d.ra] == regs[d.rb])
		case dNe:
			regs[d.rd] = isa.Bool(regs[d.ra] != regs[d.rb])
		case dLt:
			regs[d.rd] = isa.Bool(regs[d.ra] < regs[d.rb])
		case dLe:
			regs[d.rd] = isa.Bool(regs[d.ra] <= regs[d.rb])
		case dGt:
			regs[d.rd] = isa.Bool(regs[d.ra] > regs[d.rb])
		case dGe:
			regs[d.rd] = isa.Bool(regs[d.ra] >= regs[d.rb])
		case dSelect:
			if regs[d.ra] != 0 {
				regs[d.rd] = regs[d.rb]
			} else {
				regs[d.rd] = regs[d.rc]
			}
		case dLoad:
			addr := regs[d.ra]
			if uint64(addr) >= uint64(len(e.mem)) {
				return 0, fmt.Errorf("linear: %s: load address %d out of range", f.Name, addr)
			}
			regs[d.rd] = e.mem[addr]
			if e.Trace != nil {
				e.Trace(TraceEvent{Func: fi, PC: pc, Frame: frame, Instr: &f.Code[pc], Addr: addr})
			}
			pc = next
			continue
		case dStore:
			addr := regs[d.ra]
			if uint64(addr) >= uint64(len(e.mem)) {
				return 0, fmt.Errorf("linear: %s: store address %d out of range", f.Name, addr)
			}
			e.mem[addr] = regs[d.rb]
			if e.Trace != nil {
				e.Trace(TraceEvent{Func: fi, PC: pc, Frame: frame, Instr: &f.Code[pc], Addr: addr})
			}
			pc = next
			continue
		case dJump:
			next = int(d.imm)
		case dBranch:
			if regs[d.ra] != 0 {
				if e.Trace != nil {
					e.Trace(TraceEvent{Func: fi, PC: pc, Frame: frame, Instr: &f.Code[pc], Taken: true})
				}
				pc = int(d.imm)
				continue
			}
		case dCall:
			callee := int(d.imm)
			if e.Trace != nil {
				e.Trace(TraceEvent{Func: fi, PC: pc, Frame: frame, Instr: &f.Code[pc], CalleeFrame: *frames})
			}
			args := e.frame(callee)
			slab, mark := cap(e.slab), len(e.slab)-len(args)
			moves := f.moves[d.ra:d.rb]
			for i := 0; i+1 < len(moves); i += 2 {
				args[moves[i]] = regs[moves[i+1]]
			}
			v, err := e.call(callee, args, frames)
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
			regs[d.rd] = v
			pc = next
			continue
		case dRet:
			if e.Trace != nil {
				e.Trace(TraceEvent{Func: fi, PC: pc, Frame: frame, Instr: &f.Code[pc]})
			}
			return regs[d.ra], nil
		}
		if e.Trace != nil {
			e.Trace(TraceEvent{Func: fi, PC: pc, Frame: frame, Instr: &f.Code[pc]})
		}
		pc = next
	}
}
