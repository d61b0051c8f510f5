package cfgir

import (
	"maps"
	"slices"
)

// SplitCriticalEdges inserts an empty block on every edge whose source has
// multiple successors and whose target has multiple predecessors. The
// dataflow backend requires this: wave-ordered memory links every pair of
// consecutive operations through at least one statically known side, which
// holds exactly when no edge is critical.
func (f *Func) SplitCriticalEdges() {
	preds := f.Preds()
	for _, b := range f.Blocks[:len(f.Blocks):len(f.Blocks)] {
		if b.Term.Kind != TBranch {
			continue
		}
		split := func(target int) int {
			if len(preds[target]) < 2 {
				return target
			}
			m := f.NewBlock()
			m.Term = Term{Kind: TJump, Then: target}
			return m.ID
		}
		b.Term.Then = split(b.Term.Then)
		b.Term.Else = split(b.Term.Else)
	}
	f.Compact()
}

// IfConvert converts small, pure if/else diamonds (and triangles) into
// straight-line code ending in KSelect instructions — the φ instruction of
// the WaveScalar ISA. The paper discusses φ (select) versus φ⁻¹ (steer)
// control: selects remove steers and branch waves at the cost of executing
// both arms. This pass is the compiler half of that trade-off; experiment
// E9 measures it.
//
// An arm converts if it holds at most maxArm instructions. IfConvert
// returns how many diamonds and triangles it rewrote; 0 means f is
// untouched.
func (f *Func) IfConvert() (converted int) {
	s := getScratch()
	defer putScratch(s)
	return f.ifConvert(&s.opt)
}

// ifConvert is IfConvert with s's liveness and Compact storage.
func (f *Func) ifConvert(s *optScratch) (converted int) {
	for f.ifConvertOnce(&s.live) {
		converted++
		f.compact(&s.dfs)
	}
	return converted
}

// maxArm is IfConvert's per-arm instruction bound.
const maxArm = 8

// IfConvert if-converts every function and returns the total number of conversions. A caller holding a Clone learns
// from 0 that the clone is still the program it copied, so whatever it
// would lower from it is what the original lowers to.
func (p *Program) IfConvert() (converted int) {
	s := getScratch()
	defer putScratch(s)
	for _, f := range p.Funcs {
		converted += f.ifConvert(&s.opt)
	}
	return converted
}

func (f *Func) ifConvertOnce(live *LiveSets) bool {
	preds := f.Preds()
	live.Compute(f)
	liveIn := live.In

	pureArm := func(id int) bool {
		b := f.Blocks[id]
		if len(b.Instrs) > maxArm || b.Term.Kind != TJump {
			return false
		}
		if len(preds[id]) != 1 {
			return false
		}
		for i := range b.Instrs {
			if !b.Instrs[i].Pure() {
				return false
			}
		}
		return true
	}

	for _, u := range f.Blocks {
		if u.Term.Kind != TBranch {
			continue
		}
		thenID, elseID := u.Term.Then, u.Term.Else
		var join int
		thenArm, elseArm := -1, -1
		switch {
		case pureArm(thenID) && pureArm(elseID) &&
			f.Blocks[thenID].Term.Then == f.Blocks[elseID].Term.Then &&
			thenID != elseID:
			join = f.Blocks[thenID].Term.Then
			thenArm, elseArm = thenID, elseID
		case pureArm(thenID) && f.Blocks[thenID].Term.Then == elseID:
			// Triangle: u -> then -> join, u -> join.
			join = elseID
			thenArm = thenID
		case pureArm(elseID) && f.Blocks[elseID].Term.Then == thenID:
			join = thenID
			elseArm = elseID
		default:
			continue
		}
		if join == u.ID || thenArm == join || elseArm == join {
			continue
		}

		cond := u.Term.Cond
		// Inline both arms with their definitions renamed to fresh
		// registers, then select the merged values.
		type armResult struct{ lastDef map[Reg]Reg }
		inline := func(id int) armResult {
			res := armResult{lastDef: make(map[Reg]Reg)}
			if id < 0 {
				return res
			}
			rename := make(map[Reg]Reg)
			for _, in := range f.Blocks[id].Instrs {
				ni := in
				// Rewrite uses through current renames.
				sub := func(r Reg) Reg {
					if nr, ok := rename[r]; ok {
						return nr
					}
					return r
				}
				ni.A, ni.B, ni.C = sub(ni.A), sub(ni.B), sub(ni.C)
				fresh := f.NewReg()
				rename[ni.Dst] = fresh
				res.lastDef[ni.Dst] = fresh
				ni.Dst = fresh
				u.Instrs = append(u.Instrs, ni)
			}
			return res
		}
		ra := inline(thenArm)
		rb := inline(elseArm)

		// Merge every register defined by either arm that the join can
		// observe (liveness at the join, not at u: a register defined in an
		// arm and first used at the join is not live out of u), in register
		// order so the same source always compiles to the same binary.
		merged := make(map[Reg]bool)
		for r := range ra.lastDef {
			merged[r] = true
		}
		for r := range rb.lastDef {
			merged[r] = true
		}
		needed := liveIn[join]
		for _, r := range slices.Sorted(maps.Keys(merged)) {
			if !needed.Has(r) {
				continue
			}
			tv, fv := r, r
			if nr, ok := ra.lastDef[r]; ok {
				tv = nr
			}
			if nr, ok := rb.lastDef[r]; ok {
				fv = nr
			}
			u.Instrs = append(u.Instrs, Instr{Kind: KSelect, Dst: r, A: cond, B: tv, C: fv})
		}
		u.Term = Term{Kind: TJump, Then: join}
		f.converged = false
		return true
	}
	return false
}
