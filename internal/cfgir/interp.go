package cfgir

import (
	"fmt"

	"wavescalar/internal/isa"
)

// Interp executes CFG IR directly; it is correctness oracle #2, sitting
// between the AST evaluator and the dataflow/linear backends.
type Interp struct {
	prog *Program
	mem  []int64
	fuel int64

	// Instrs counts executed IR instructions (a backend-independent work
	// metric used to size workloads).
	Instrs int64
}

// ErrInterpFuel reports that execution exceeded the instruction budget.
var ErrInterpFuel = fmt.Errorf("cfgir: interpretation exceeded instruction budget")

// NewInterp prepares an interpreter. fuel bounds executed instructions
// (0 means a default of 2G). It is a test reference: only tests call it, to
// run the IR itself.
func NewInterp(p *Program, fuel int64) *Interp {
	if fuel == 0 {
		fuel = 2_000_000_000
	}
	return &Interp{prog: p, mem: p.InitialMemory(), fuel: fuel}
}

// Memory exposes the live memory image.
func (ip *Interp) Memory() []int64 { return ip.mem }

// Run executes main and returns its result.
func (ip *Interp) Run() (int64, error) {
	mainIdx := ip.prog.FuncByName("main")
	if mainIdx < 0 {
		return 0, fmt.Errorf("cfgir: no main function")
	}
	return ip.call(mainIdx, nil)
}

func (ip *Interp) call(fi int, args []int64) (int64, error) {
	f := ip.prog.Funcs[fi]
	regs := make([]int64, f.NumRegs)
	for i, pr := range f.Params {
		regs[pr] = args[i]
	}
	bid := f.Entry
	for {
		b := f.Blocks[bid]
		for i := range b.Instrs {
			in := &b.Instrs[i]
			ip.Instrs++
			ip.fuel--
			if ip.fuel < 0 {
				return 0, ErrInterpFuel
			}
			switch in.Kind {
			case KConst:
				regs[in.Dst] = in.Imm
			case KAlu:
				regs[in.Dst] = isa.EvalALU(in.Op, regs[in.A], ip.operandB(regs, in))
			case KLoad:
				addr := regs[in.A]
				if addr < 0 || addr >= int64(len(ip.mem)) {
					return 0, fmt.Errorf("cfgir: %s: load address %d out of range", f.Name, addr)
				}
				regs[in.Dst] = ip.mem[addr]
			case KStore:
				addr := regs[in.A]
				if addr < 0 || addr >= int64(len(ip.mem)) {
					return 0, fmt.Errorf("cfgir: %s: store address %d out of range", f.Name, addr)
				}
				ip.mem[addr] = regs[in.B]
			case KCall:
				callArgs := make([]int64, len(in.Args))
				for j, a := range in.Args {
					callArgs[j] = regs[a]
				}
				v, err := ip.call(in.Callee, callArgs)
				if err != nil {
					return 0, err
				}
				regs[in.Dst] = v
			case KSelect:
				if regs[in.A] != 0 {
					regs[in.Dst] = regs[in.B]
				} else {
					regs[in.Dst] = regs[in.C]
				}
			}
		}
		ip.Instrs++
		ip.fuel--
		if ip.fuel < 0 {
			return 0, ErrInterpFuel
		}
		switch b.Term.Kind {
		case TJump:
			bid = b.Term.Then
		case TBranch:
			if regs[b.Term.Cond] != 0 {
				bid = b.Term.Then
			} else {
				bid = b.Term.Else
			}
		case TRet:
			return regs[b.Term.Val], nil
		}
	}
}

func (ip *Interp) operandB(regs []int64, in *Instr) int64 {
	if in.Op.NumInputs() == 1 {
		return 0
	}
	return regs[in.B]
}
