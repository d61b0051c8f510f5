package cfgir

import (
	"flag"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"wavescalar/internal/isa"
	"wavescalar/internal/testprogs"
	"wavescalar/internal/workloads"
)

// This file keeps the optimizer's original, quadratic formulations as
// reference implementations and holds the linear ones to them, block for
// block and set for set, on every function of the ten kernels and a
// generated corpus.

// localCSERef is localCSE as first written: every defining instruction
// scans the whole avail and copies maps, every store or call the whole
// avail map.
func localCSERef(b *Block) bool {
	type key struct {
		kind InstrKind
		op   isa.Opcode
		a, b Reg
		c    Reg
		imm  int64
	}
	changed := false
	avail := make(map[key]Reg)
	users := make(map[Reg][]key)
	copies := make(map[Reg]Reg)

	resolve := func(r Reg) Reg {
		for {
			s, ok := copies[r]
			if !ok {
				return r
			}
			r = s
		}
	}
	invalidate := func(r Reg) {
		for _, k := range users[r] {
			delete(avail, k)
		}
		delete(users, r)
		for k, v := range avail {
			if v == r {
				delete(avail, k)
			}
		}
		delete(copies, r)
		for d, s := range copies {
			if s == r {
				delete(copies, d)
			}
		}
	}

	for i := range b.Instrs {
		in := &b.Instrs[i]
		switch in.Kind {
		case KAlu:
			na, nb := resolve(in.A), resolve(in.B)
			if na != in.A || (in.Op.NumInputs() == 2 && nb != in.B) {
				in.A = na
				if in.Op.NumInputs() == 2 {
					in.B = nb
				}
				changed = true
			}
		case KLoad:
			if na := resolve(in.A); na != in.A {
				in.A = na
				changed = true
			}
		case KStore:
			na, nb := resolve(in.A), resolve(in.B)
			if na != in.A || nb != in.B {
				in.A, in.B = na, nb
				changed = true
			}
		case KSelect:
			na, nb, nc := resolve(in.A), resolve(in.B), resolve(in.C)
			if na != in.A || nb != in.B || nc != in.C {
				in.A, in.B, in.C = na, nb, nc
				changed = true
			}
		case KCall:
			for j, a := range in.Args {
				if na := resolve(a); na != a {
					in.Args[j] = na
					changed = true
				}
			}
		}

		var k key
		cacheable := false
		switch in.Kind {
		case KConst:
			k = key{kind: KConst, imm: in.Imm}
			cacheable = true
		case KAlu:
			k = key{kind: KAlu, op: in.Op, a: in.A, b: in.B}
			if in.Op.NumInputs() == 1 {
				k.b = NoReg
			}
			cacheable = true
		case KLoad:
			k = key{kind: KLoad, a: in.A}
			cacheable = true
		case KSelect:
			k = key{kind: KSelect, a: in.A, b: in.B, c: in.C}
			cacheable = true
		case KStore, KCall:
			for kk := range avail {
				if kk.kind == KLoad {
					delete(avail, kk)
				}
			}
		}

		if in.HasDst() {
			invalidate(in.Dst)
		}

		if cacheable {
			if prev, ok := avail[k]; ok && prev != in.Dst {
				dst := in.Dst
				*in = Instr{Kind: KAlu, Op: isa.OpOr, Dst: dst, A: prev, B: prev}
				copies[dst] = prev
				users[prev] = append(users[prev], key{kind: KAlu, op: isa.OpOr, a: prev, b: prev})
				changed = true
				continue
			}
			avail[k] = in.Dst
			if k.a != NoReg && in.Kind != KConst {
				users[k.a] = append(users[k.a], k)
			}
			if k.b != NoReg && (in.Kind == KAlu || in.Kind == KSelect) {
				users[k.b] = append(users[k.b], k)
			}
			if k.c != NoReg && in.Kind == KSelect {
				users[k.c] = append(users[k.c], k)
			}
			if in.Kind == KAlu && in.Op == isa.OpOr && in.A == in.B {
				copies[in.Dst] = in.A
			}
		}
	}
	return changed
}

// livenessRef is Liveness as first written: the transfer function clones
// live-out and removes the block's definitions one member at a time.
func livenessRef(f *Func) (liveIn, liveOut []RegSet) {
	n := len(f.Blocks)
	liveIn = make([]RegSet, n)
	liveOut = make([]RegSet, n)
	use := make([]RegSet, n)
	def := make([]RegSet, n)
	var buf []Reg
	for i, b := range f.Blocks {
		liveIn[i] = NewRegSet(f.NumRegs)
		liveOut[i] = NewRegSet(f.NumRegs)
		use[i] = NewRegSet(f.NumRegs)
		def[i] = NewRegSet(f.NumRegs)
		for j := range b.Instrs {
			in := &b.Instrs[j]
			buf = in.Uses(buf[:0])
			for _, r := range buf {
				if !def[i].Has(r) {
					use[i].Add(r)
				}
			}
			if in.HasDst() {
				def[i].Add(in.Dst)
			}
		}
		switch b.Term.Kind {
		case TBranch:
			if !def[i].Has(b.Term.Cond) {
				use[i].Add(b.Term.Cond)
			}
		case TRet:
			if !def[i].Has(b.Term.Val) {
				use[i].Add(b.Term.Val)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			for _, s := range f.Blocks[i].Succs() {
				if liveOut[i].UnionWith(liveIn[s]) {
					changed = true
				}
			}
			newIn := liveOut[i].Clone()
			for _, r := range def[i].Members() {
				newIn.Remove(r)
			}
			newIn.UnionWith(use[i])
			if liveIn[i].UnionWith(newIn) {
				changed = true
			}
		}
	}
	return liveIn, liveOut
}

// eliminateDeadCodeRef is eliminateDeadCode as first written: a clone of
// the live-out set and a fresh instruction slice per block, filled backwards
// and reversed.
func eliminateDeadCodeRef(f *Func) bool {
	_, liveOut := f.Liveness()
	changed := false
	var buf []Reg
	for bi, b := range f.Blocks {
		live := liveOut[bi].Clone()
		switch b.Term.Kind {
		case TBranch:
			live.Add(b.Term.Cond)
		case TRet:
			live.Add(b.Term.Val)
		}
		keep := make([]Instr, 0, len(b.Instrs))
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			if in.Pure() && !live.Has(in.Dst) {
				changed = true
				continue
			}
			if in.HasDst() {
				live.Remove(in.Dst)
			}
			buf = in.Uses(buf[:0])
			for _, r := range buf {
				live.Add(r)
			}
			keep = append(keep, in)
		}
		for i, j := 0, len(keep)-1; i < j; i, j = i+1, j-1 {
			keep[i], keep[j] = keep[j], keep[i]
		}
		b.Instrs = keep
	}
	return changed
}

// optimizeRef is Optimize as first written: every round runs both local
// passes on every block. A block counts as changed when its instructions
// differ from a copy taken before the passes ran, whatever the passes
// report (Optimize judges them by the same net edit). It reports per
// function whether the rounds ended at a fixpoint, which is what Optimize
// records in Func.converged.
func optimizeRef(p *Program) {
	var s optScratch
	for _, f := range p.Funcs {
		f.Compact()
		f.converged = false
		for round := 0; round < 4; round++ {
			changed := false
			for _, b := range f.Blocks {
				before := cloneBlock(b)
				s.foldConstants(f, b)
				localCSERef(b)
				if !reflect.DeepEqual(b.Instrs, before.Instrs) {
					changed = true
				}
			}
			if foldBranches(f) {
				changed = true
			}
			if eliminateDeadCodeRef(f) {
				changed = true
			}
			f.Compact()
			if !changed {
				f.converged = true
				break
			}
		}
	}
}

// optimizeMemoryRef is OptimizeMemory as first written: the map-based
// passes below on every function, every round recomputing constDefsRef,
// then the whole base pipeline on every function.
func optimizeMemoryRef(p *Program) MemOptStats {
	var total MemOptStats
	touches := p.MemTouches()
	memOps := func(f *Func) int64 {
		loads, stores := countMemOps(f)
		return loads + stores
	}
	for _, f := range p.Funcs {
		st := MemOptStats{MemBefore: memOps(f), InstrsBefore: countInstrs(f)}
		for round := 0; round < 4; round++ {
			changed := forwardLocalRef(f, touches, &st)
			constOf := constDefsRef(f)
			if forwardMemoryRef(f, touches, constOf, &st) {
				changed = true
			}
			if eliminateDeadStoresRef(f, touches, constOf, &st) {
				changed = true
			}
			if !changed {
				break
			}
		}
		st.MemAfter = memOps(f)
		total.Add(st)
	}
	optimizeRef(p)
	total.InstrsAfter = 0
	for _, f := range p.Funcs {
		total.InstrsAfter += countInstrs(f)
	}
	return total
}

// The memory tier as first written. Its facts are maps: every definition
// scans every live fact for the register (killReg, forwardLocalRef's
// killVal), every store scans them all for aliases, and each block of each
// fixpoint iteration clones its entry map. OptimizeMemory's tables must
// rewrite the same loads and delete the same stores.

// constDefsRef maps every register defined exactly once, by a KConst, to its
// constant value. Such a register holds that value at every use, so it can
// serve as a canonical address key that survives block boundaries.
func constDefsRef(f *Func) map[Reg]int64 {
	defs := make(map[Reg]int)
	val := make(map[Reg]int64)
	isConst := make(map[Reg]bool)
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if !in.HasDst() || in.Dst == NoReg {
				continue
			}
			defs[in.Dst]++
			if in.Kind == KConst {
				val[in.Dst] = in.Imm
				isConst[in.Dst] = true
			}
		}
	}
	out := make(map[Reg]int64)
	for r, n := range defs {
		if n == 1 && isConst[r] {
			out[r] = val[r]
		}
	}
	return out
}

// addrKey is a canonical memory address: the constant value for
// single-definition constant registers, the register itself otherwise.
type addrKey struct {
	r       Reg
	c       int64
	isConst bool
}

func canonAddr(r Reg, constOf map[Reg]int64) addrKey {
	if c, ok := constOf[r]; ok {
		return addrKey{c: c, isConst: true}
	}
	return addrKey{r: r}
}

// factSet is the per-point fact map. nil means TOP (not yet computed —
// every fact holds), used only as the optimistic dataflow initializer;
// reachable program points always hold a concrete (possibly empty) map.
type factSet map[addrKey]memFact

func cloneFacts(s factSet) factSet {
	out := make(factSet, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// meetFacts intersects b into a (both non-TOP): facts must agree exactly.
func meetFacts(a, b factSet) factSet {
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			delete(a, k)
		}
	}
	return a
}

func factsEqual(a, b factSet) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// killReg drops every fact that mentions r as a register address or as the
// value. Constant-keyed addresses are immune to register redefinition.
func killReg(s factSet, r Reg) {
	for k, v := range s {
		if (!k.isConst && k.r == r) || v.val == r {
			delete(s, k)
		}
	}
}

// transferFacts applies one instruction to the fact set without rewriting.
func transferFacts(s factSet, in *Instr, touches []bool, constOf map[Reg]int64) {
	switch in.Kind {
	case KLoad:
		killReg(s, in.Dst)
		k := canonAddr(in.A, constOf)
		// A load through its own destination register destroys the address
		// (never constant-keyed: such a register has two definitions).
		if _, ok := s[k]; !ok && in.A != in.Dst {
			s[k] = memFact{val: in.Dst}
		}
		return
	case KStore:
		// A store kills every fact it may alias. Two constant addresses
		// alias only when equal; every other pairing must be assumed to.
		k := canonAddr(in.A, constOf)
		for fk := range s {
			if !(fk.isConst && k.isConst && fk.c != k.c) {
				delete(s, fk)
			}
		}
		s[k] = memFact{val: in.B, fromStore: true}
		return
	case KCall:
		if touches[in.Callee] {
			for k := range s {
				delete(s, k)
			}
		}
	}
	if in.HasDst() {
		killReg(s, in.Dst)
	}
}

// forwardMemoryRef is the availability dataflow plus rewriting: loads whose
// address has a known memory fact become register moves. Returns whether
// anything was rewritten.
func forwardMemoryRef(f *Func, touches []bool, constOf map[Reg]int64, st *MemOptStats) bool {
	n := len(f.Blocks)
	preds := f.Preds()
	out := make([]factSet, n) // nil = TOP
	rpo := f.rpo()

	// Fixpoint over block summaries. Termination: out sets start at TOP and
	// only ever shrink (the meet is intersection, every transfer is
	// monotone), so the loop must run until stable — stopping early would
	// leave sets too large, which is the unsound direction.
	for {
		changed := false
		for _, bi := range rpo {
			b := f.Blocks[bi]
			in := entryFacts(f, bi, preds[bi], out)
			for i := range b.Instrs {
				transferFacts(in, &b.Instrs[i], touches, constOf)
			}
			if out[bi] == nil || !factsEqual(out[bi], in) {
				out[bi] = in
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Rewrite pass: replay each block from its (now stable) entry facts,
	// replacing loads the facts cover with or-moves. The fact's provenance
	// picks the counter; crossing a block boundary upgrades reuse to
	// promotion (scalar replacement).
	rewrote := false
	for bi, b := range f.Blocks {
		facts := entryFacts(f, bi, preds[bi], out)
		entry := cloneFacts(facts) // facts inherited from predecessors
		for i := range b.Instrs {
			ins := &b.Instrs[i]
			if ins.Kind == KLoad {
				k := canonAddr(ins.A, constOf)
				if fact, ok := facts[k]; ok && fact.val != ins.Dst {
					fromEntry := false
					if ef, ok := entry[k]; ok && ef == fact {
						fromEntry = true
					}
					switch {
					case fact.fromStore:
						st.StoresForwarded++
					case fromEntry:
						st.LoadsPromoted++
					default:
						st.LoadsReused++
					}
					*ins = Instr{Kind: KAlu, Op: isa.OpOr, Dst: ins.Dst, A: fact.val, B: fact.val}
					rewrote = true
					// The move redefines Dst exactly as the load did; fall
					// through to the normal transfer below.
				}
			}
			transferFacts(facts, ins, touches, constOf)
			// Entry-provenance facts die the same way live facts do.
			for k, v := range entry {
				if fv, ok := facts[k]; !ok || fv != v {
					delete(entry, k)
				}
			}
		}
	}
	return rewrote
}

// forwardLocalRef is the block-local, value-numbered companion to
// forwardMemoryRef. Where the dataflow pass keys facts by canonical address
// (and so only sees single-definition constant registers across blocks),
// this pass proves two *computed* addresses equal within a block: every
// register value gets a number — constants by value, ALU results by
// (op, operand numbers), everything else (block inputs, loads, calls) a
// fresh opaque number — and memory facts key on the address's number.
// Numbers name values, not registers, so redefining an address register
// does not invalidate a fact; facts still die when their value register
// is redefined, on stores to addresses not provably distinct (only two
// distinct constants are provably distinct), and on calls into memory-
// touching callees. Soundness of the rewrite is the usual same-block
// argument: the covering access executes earlier in the same block
// through a provably equal address, so the load's value and its trap
// (if the address is bad, the earlier access faulted first) are both
// preserved.
func forwardLocalRef(f *Func, touches []bool, st *MemOptStats) bool {
	rewrote := false
	type aluKey struct {
		op   isa.Opcode
		a, b int
	}
	// Every value number carries a linear term (root number + constant
	// offset): constants are {root 0, c}; adding or subtracting a constant
	// shifts the offset; everything else roots at itself with offset 0.
	// Two addresses with the same root and different offsets are provably
	// distinct — int64 addition is injective in its constant addend — which
	// is what disambiguates posX[i] from posY[i] (same index root, two
	// array bases) and a[i] from a[i+1] across unrolled loop bodies.
	type term struct {
		root int
		off  int64
	}
	for _, b := range f.Blocks {
		nextVN := 0
		vn := make(map[Reg]int)     // register -> number of its current value
		terms := make(map[int]term) // number -> linear decomposition
		termVN := make(map[term]int)
		aluVN := make(map[aluKey]int)
		// pairVN canonicalizes a sum or difference of two non-constant
		// values as a synthetic root, so `(r*20 + c) + 1` and `r*20 + (c+1)`
		// normalize to the same root with offsets 0 and 1 (substituted
		// induction variables in unrolled bodies keep the builder's
		// left-associated shape, so pairing one level deep is enough).
		pairVN := make(map[aluKey]int)
		facts := make(map[int]memFact) // address number -> known content
		fresh := func() int {
			nextVN++
			terms[nextVN] = term{root: nextVN}
			termVN[term{root: nextVN}] = nextVN
			return nextVN
		}
		vnFor := func(t term) int {
			if v, ok := termVN[t]; ok {
				return v
			}
			nextVN++
			terms[nextVN] = t
			termVN[t] = nextVN
			return nextVN
		}
		getVN := func(r Reg) int {
			if v, ok := vn[r]; ok {
				return v
			}
			v := fresh() // block input: opaque but stable value
			vn[r] = v
			return v
		}
		killVal := func(r Reg) {
			for k, v := range facts {
				if v.val == r {
					delete(facts, k)
				}
			}
		}
		for i := range b.Instrs {
			ins := &b.Instrs[i]
			switch ins.Kind {
			case KConst:
				killVal(ins.Dst)
				vn[ins.Dst] = vnFor(term{root: 0, off: ins.Imm})
			case KAlu:
				av := getVN(ins.A)
				bv := av
				if ins.Op.NumInputs() == 2 {
					bv = getVN(ins.B)
				}
				ta, tb := terms[av], terms[bv]
				if ins.Op.NumInputs() == 1 {
					tb = term{root: 0} // unary ops ignore B; EvalALU takes 0
				}
				var v int
				switch {
				case ta.root == 0 && tb.root == 0:
					// All operands constant: the value is too.
					v = vnFor(term{root: 0, off: isa.EvalALU(ins.Op, ta.off, tb.off)})
				case ins.Op == isa.OpAdd && ta.root == 0:
					v = vnFor(term{root: tb.root, off: tb.off + ta.off})
				case ins.Op == isa.OpAdd && tb.root == 0:
					v = vnFor(term{root: ta.root, off: ta.off + tb.off})
				case ins.Op == isa.OpSub && tb.root == 0:
					v = vnFor(term{root: ta.root, off: ta.off - tb.off})
				case ins.Op == isa.OpAdd:
					// Sum of two non-constants: root on the canonical
					// (commutative) pair of roots, offsets add.
					ra, rb := ta.root, tb.root
					if ra > rb {
						ra, rb = rb, ra
					}
					p, ok := pairVN[aluKey{isa.OpAdd, ra, rb}]
					if !ok {
						p = fresh()
						pairVN[aluKey{isa.OpAdd, ra, rb}] = p
					}
					v = vnFor(term{root: p, off: ta.off + tb.off})
				case ins.Op == isa.OpSub:
					p, ok := pairVN[aluKey{isa.OpSub, ta.root, tb.root}]
					if !ok {
						p = fresh()
						pairVN[aluKey{isa.OpSub, ta.root, tb.root}] = p
					}
					v = vnFor(term{root: p, off: ta.off - tb.off})
				default:
					k := aluKey{ins.Op, av, bv}
					var ok bool
					if v, ok = aluVN[k]; !ok {
						v = fresh()
						aluVN[k] = v
					}
				}
				killVal(ins.Dst)
				vn[ins.Dst] = v
			case KLoad:
				av := getVN(ins.A)
				if fact, ok := facts[av]; ok && fact.val != ins.Dst {
					if fact.fromStore {
						st.StoresForwarded++
					} else {
						st.LoadsReused++
					}
					src := fact.val
					*ins = Instr{Kind: KAlu, Op: isa.OpOr, Dst: ins.Dst, A: src, B: src}
					rewrote = true
					killVal(ins.Dst)
					vn[ins.Dst] = getVN(src) // the move copies src's value
					continue
				}
				killVal(ins.Dst)
				vn[ins.Dst] = fresh()
				facts[av] = memFact{val: ins.Dst}
			case KStore:
				av := getVN(ins.A)
				ta := terms[av]
				for k := range facts {
					if k == av {
						continue // overwritten just below
					}
					if tk := terms[k]; tk.root == ta.root && tk.off != ta.off {
						continue // same root, different offset: cannot alias
					}
					delete(facts, k)
				}
				facts[av] = memFact{val: ins.B, fromStore: true}
			case KCall:
				if touches[ins.Callee] {
					facts = make(map[int]memFact)
				}
				killVal(ins.Dst)
				vn[ins.Dst] = fresh()
			default:
				if ins.HasDst() {
					killVal(ins.Dst)
					vn[ins.Dst] = fresh()
				}
			}
		}
	}
	return rewrote
}

// entryFacts computes a block's entry fact set: the meet over predecessor
// outs (TOP preds are skipped — optimistic initialization), empty for the
// entry block and for blocks whose predecessors are all TOP.
func entryFacts(f *Func, bi int, preds []int, out []factSet) factSet {
	if bi == f.Entry || len(preds) == 0 {
		return factSet{}
	}
	var in factSet
	for _, p := range preds {
		if out[p] == nil {
			continue // TOP: identity of the meet
		}
		if in == nil {
			in = cloneFacts(out[p])
		} else {
			in = meetFacts(in, out[p])
		}
	}
	if in == nil {
		return factSet{}
	}
	return in
}

// eliminateDeadStoresRef deletes a store when the next memory-touching event
// in its own block is another store through the same canonical address,
// with only pure non-trapping instructions between. The window is
// deliberately local: the overwriting store always executes once the dead
// one has (same block, no intervening trap source), so deletion preserves
// the final memory image, the trap schedule, and every load's value.
func eliminateDeadStoresRef(f *Func, touches []bool, constOf map[Reg]int64, st *MemOptStats) bool {
	changed := false
	for _, b := range f.Blocks {
		keep := b.Instrs[:0]
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			if in.Kind == KStore && storeIsDeadRef(b, i, constOf) {
				st.DeadStores++
				changed = true
				continue
			}
			keep = append(keep, in)
		}
		b.Instrs = keep
	}
	return changed
}

// storeIsDeadRef reports whether the store at b.Instrs[i] is overwritten
// before any possible observer.
func storeIsDeadRef(b *Block, i int, constOf map[Reg]int64) bool {
	key := canonAddr(b.Instrs[i].A, constOf)
	for j := i + 1; j < len(b.Instrs); j++ {
		in := &b.Instrs[j]
		switch in.Kind {
		case KStore:
			return canonAddr(in.A, constOf) == key
		case KLoad:
			return false
		case KCall:
			return false
		}
		if in.HasDst() && !key.isConst && in.Dst == key.r {
			return false
		}
	}
	return false
}

var memoptWide = flag.Bool("memopt-wide", false,
	"hold the memory tier to its map-based reference on CorpusSpecs(300, 1) and CorpusSpecs(200, 7) too (make memopt-wide)")

// TestOptimizeMemoryMatchesMapReference: the tier's tables rewrite the same
// loads and delete the same stores as the map-based passes they replaced —
// the IR text and every MemOptStats counter are equal on the kernels,
// CorpusSpecs(100, 1) and the benchmark's wide block at unroll 1 and 4;
// with -memopt-wide, on CorpusSpecs(300, 1) and CorpusSpecs(200, 7) in
// place of the 100.
func TestOptimizeMemoryMatchesMapReference(t *testing.T) {
	specs := testprogs.CorpusSpecs(100, 1)
	if *memoptWide {
		specs = append(testprogs.CorpusSpecs(300, 1), testprogs.CorpusSpecs(200, 7)...)
	}
	type subject struct{ name, src string }
	subjects := []subject{{"wide block", wideBlockSrc(150)}}
	for _, s := range workloads.Names() {
		subjects = append(subjects, subject{s, workloads.ByName(s).Src})
	}
	for _, spec := range specs {
		subjects = append(subjects, subject{spec.Name(), workloads.ByName(spec.Name()).Src})
	}
	var total MemOptStats
	builds := 0
	for _, s := range subjects {
		for _, unroll := range []int{1, 4} {
			got, _, _, err := FromSource(s.src, unroll, 0)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			want := got.Clone()
			gotSt, wantSt := got.OptimizeMemory(), optimizeMemoryRef(want)
			if gotSt != wantSt {
				t.Fatalf("%s unroll %d: counters %+v, map reference %+v", s.name, unroll, gotSt, wantSt)
			}
			if g, w := got.String(), want.String(); g != w {
				t.Fatalf("%s unroll %d: IR differs from the map reference\n got:\n%s\n want:\n%s", s.name, unroll, g, w)
			}
			total.Add(gotSt)
			builds++
		}
	}
	if total.MemBefore == total.MemAfter {
		t.Fatal("the tier removed no memory operation; the comparison shows nothing")
	}
	t.Logf("%d builds equal; %d memory operations removed", builds, total.MemBefore-total.MemAfter)
}

// roundBoundSrc needs more than four rounds of the base pipeline: each
// round's dead-code elimination exposes the next link of a chain of
// cross-block dead values. Optimize stops on it at the round bound, so it
// must not count as converged — a further run (the memory tier's cleanup)
// still changes it.
const roundBoundSrc = `
func main() {
	var a = 1; var b = 0; var c = 0; var d = 0; var e = 0; var f = 0; var g = 0; var h = 0;
	var i = 0;
	while i < 3 { b = a + i; i = i + 1; }
	while i < 6 { c = b + i; i = i + 1; }
	while i < 9 { d = c + i; i = i + 1; }
	while i < 12 { e = d + i; i = i + 1; }
	while i < 15 { f = e + i; i = i + 1; }
	while i < 18 { g = f + i; i = i + 1; }
	while i < 21 { h = g + i; i = i + 1; }
	return i;
}`

// TestOptimizeMatchesRunEverythingReference: skipping settled blocks, the
// in-place dead-code elimination and the cleanup OptimizeMemory leaves out
// change nothing — every function of the corpus, at both tiers and unrolled
// or not, is DeepEqual (instructions, block order, register count and the
// converged mark) to what the run-everything pipeline makes of it, and the
// tier's counters are the same.
func TestOptimizeMatchesRunEverythingReference(t *testing.T) {
	type subject struct{ name, src string }
	subjects := []subject{{"round bound", roundBoundSrc}}
	for _, s := range referenceCorpus(50) {
		subjects = append(subjects, subject{s, workloads.ByName(s).Src})
	}
	funcs, unconverged, cleanupsLeftOut := 0, 0, 0
	for _, s := range subjects {
		for _, unroll := range []int{1, 4} {
			got, _, _, err := FromSource(s.src, unroll, OptNone)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			want := got.Clone()
			got.Optimize()
			optimizeRef(want)
			compare := func(tier string) {
				t.Helper()
				for i, f := range got.Funcs {
					// The reference leaves an empty block an empty, non-nil
					// slice where the builder's nil survives in-place
					// compaction; DeepEqual tells the two apart.
					for _, fn := range []*Func{f, want.Funcs[i]} {
						for _, b := range fn.Blocks {
							if len(b.Instrs) == 0 {
								b.Instrs = nil
							}
						}
					}
					if !reflect.DeepEqual(f, want.Funcs[i]) {
						t.Fatalf("%s unroll %d %s: %s differs from the run-everything reference\n got:\n%s\n want:\n%s",
							s.name, unroll, tier, f.Name, f, want.Funcs[i])
					}
				}
			}
			compare("O0")
			for _, f := range got.Funcs {
				funcs++
				if !f.converged {
					unconverged++
				}
			}
			before := make([]string, len(got.Funcs))
			for i, f := range got.Funcs {
				before[i] = f.String()
			}
			gotSt, wantSt := got.OptimizeMemory(), optimizeMemoryRef(want)
			if gotSt != wantSt {
				t.Fatalf("%s unroll %d: memory tier counters %+v, reference %+v", s.name, unroll, gotSt, wantSt)
			}
			compare("O1")
			for i, f := range got.Funcs {
				if f.String() == before[i] {
					cleanupsLeftOut++
				}
			}
		}
	}
	if unconverged == 0 {
		t.Error("no function stopped at the round bound; the test needs one")
	}
	t.Logf("compared %d functions at two tiers; %d stopped at the round bound; the memory tier left %d unchanged", funcs, unconverged, cleanupsLeftOut)
}

// TestOptimizeStopsAtItsFixpoint: every function of the kernels and the
// generated corpus, unrolled or not, reaches its fixpoint within the round
// bound at both tiers — only roundBoundSrc's chain of dead values outlasts
// it — and optimizing an optimized function again runs one round and
// changes nothing.
func TestOptimizeStopsAtItsFixpoint(t *testing.T) {
	type subject struct{ name, src string }
	subjects := []subject{{"round bound", roundBoundSrc}}
	for _, s := range referenceCorpus(50) {
		subjects = append(subjects, subject{s, workloads.ByName(s).Src})
	}
	funcs := 0
	for _, s := range subjects {
		for _, unroll := range []int{1, 4} {
			for _, tier := range []int{0, 1} {
				p, _, _, err := FromSource(s.src, unroll, tier)
				if err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
				for _, f := range p.Funcs {
					funcs++
					if !f.converged {
						if s.src != roundBoundSrc {
							t.Errorf("%s unroll %d O%d: %s stopped at the round bound", s.name, unroll, tier, f.Name)
						}
						continue
					}
					again := (&Program{Funcs: []*Func{f}}).Clone().Funcs[0]
					var sc optScratch
					sc.optimize(again)
					if sc.rounds != 1 || !reflect.DeepEqual(again, f) {
						t.Errorf("%s unroll %d O%d: %s optimized again ran %d rounds, changed %v",
							s.name, unroll, tier, f.Name, sc.rounds, !reflect.DeepEqual(again, f))
					}
				}
			}
		}
	}
	t.Logf("checked %d functions", funcs)
}

// referenceCorpus names the ten kernels plus n generated programs
// (workloads.ByName resolves both kinds).
func referenceCorpus(n int) []string {
	names := workloads.Names()
	for _, spec := range testprogs.CorpusSpecs(n, 1) {
		names = append(names, spec.Name())
	}
	return names
}

func mustFromSource(tb testing.TB, name string, unroll, optLevel int) *Program {
	tb.Helper()
	p, _, _, err := FromSource(workloads.ByName(name).Src, unroll, optLevel)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	return p
}

// TestLocalCSEMatchesReference replays Optimize's pass loop on every
// corpus function and, at each point the pipeline would run localCSE, runs
// both formulations on copies of the block. One scratch serves the whole
// test, so every block pass after the first starts on tables an earlier
// block, function or program left behind.
func TestLocalCSEMatchesReference(t *testing.T) {
	var sc optScratch
	blocks := 0
	for _, s := range referenceCorpus(50) {
		for _, unroll := range []int{1, 4} {
			p := mustFromSource(t, s, unroll, OptNone)
			for _, f := range p.Funcs {
				for round := 0; round < 4; round++ {
					changed := false
					for _, b := range f.Blocks {
						if sc.foldConstants(f, b) {
							changed = true
						}
						ref := cloneBlock(b)
						got, want := sc.localCSE(f, b), localCSERef(ref)
						if got != want || !reflect.DeepEqual(b.Instrs, ref.Instrs) {
							t.Fatalf("%s unroll %d: %s b%d round %d: localCSE changed=%v, reference changed=%v\n got:  %v\n want: %v",
								s, unroll, f.Name, b.ID, round, got, want, b.Instrs, ref.Instrs)
						}
						changed = changed || got
						blocks++
					}
					if foldBranches(f) {
						changed = true
					}
					if sc.eliminateDeadCode(f) {
						changed = true
					}
					f.Compact()
					if !changed {
						break
					}
				}
			}
		}
	}
	t.Logf("compared %d block passes", blocks)
}

func cloneBlock(b *Block) *Block {
	f := &Func{Blocks: []*Block{b}}
	return (&Program{Funcs: []*Func{f}}).Clone().Funcs[0].Blocks[0]
}

// TestLivenessMatchesReference compares the live sets of every corpus
// function as built, as optimized at both tiers, and in the shapes the
// dataflow backend analyses (if-converted, critical edges split).
func TestLivenessMatchesReference(t *testing.T) {
	funcs := 0
	check := func(s, stage string, p *Program) {
		t.Helper()
		for _, f := range p.Funcs {
			in, out := f.Liveness()
			wantIn, wantOut := livenessRef(f)
			if !reflect.DeepEqual(in, wantIn) || !reflect.DeepEqual(out, wantOut) {
				t.Fatalf("%s (%s): %s: live sets differ from the reference", s, stage, f.Name)
			}
			funcs++
		}
	}
	for _, s := range referenceCorpus(50) {
		check(s, "built", mustFromSource(t, s, 4, OptNone))
		check(s, "O0", mustFromSource(t, s, 4, 0))
		p := mustFromSource(t, s, 4, 1)
		check(s, "O1", p)
		for _, f := range p.Funcs {
			f.IfConvert()
			f.SplitCriticalEdges()
		}
		check(s, "O1 if-converted and split", p)
	}
	t.Logf("compared %d functions", funcs)
}

func TestRegSetMembersAndCount(t *testing.T) {
	s := NewRegSet(200)
	want := []Reg{0, 1, 63, 64, 65, 127, 128, 199}
	for _, r := range want {
		s.Add(r)
	}
	s.Add(NoReg)
	if got := s.Members(); !reflect.DeepEqual(got, want) {
		t.Errorf("Members = %v, want %v", got, want)
	}
	if s.Count() != len(want) {
		t.Errorf("Count = %d, want %d", s.Count(), len(want))
	}
	if got := NewRegSet(200).Members(); got != nil {
		t.Errorf("Members of the empty set = %v, want nil", got)
	}
}

// TestCloneIsDeep: lowering consumes the clone (wavec.Compile's two CFG
// passes run here; cfgir cannot import wavec) and then every instruction
// of it is overwritten, and the original neither changes nor shares an
// instruction or argument backing array with it.
func TestCloneIsDeep(t *testing.T) {
	for _, s := range referenceCorpus(10) {
		p := mustFromSource(t, s, 4, 1)
		before := p.String()
		c := p.Clone()
		if c.String() != before {
			t.Fatalf("%s: clone renders differently from the original", s)
		}
		for fi, f := range c.Funcs {
			orig := p.Funcs[fi]
			if f == orig || (len(f.Params) > 0 && &f.Params[0] == &orig.Params[0]) {
				t.Fatalf("%s: %s: function or its parameter list is shared", s, f.Name)
			}
			for bi, b := range f.Blocks {
				ob := orig.Blocks[bi]
				if b == ob || (len(b.Instrs) > 0 && &b.Instrs[0] == &ob.Instrs[0]) {
					t.Fatalf("%s: %s b%d: block or its instructions are shared", s, f.Name, bi)
				}
				for ii := range b.Instrs {
					if a, oa := b.Instrs[ii].Args, ob.Instrs[ii].Args; len(a) > 0 && &a[0] == &oa[0] {
						t.Fatalf("%s: %s b%d: call arguments are shared", s, f.Name, bi)
					}
				}
			}
			f.IfConvert()
			f.SplitCriticalEdges()
			for _, b := range f.Blocks {
				for ii := range b.Instrs {
					in := &b.Instrs[ii]
					for ai := range in.Args {
						in.Args[ai] = NoReg
					}
					in.Kind, in.Dst, in.A, in.B, in.C = KConst, NoReg, NoReg, NoReg, NoReg
				}
				b.Term = Term{Kind: TRet, Val: NoReg}
			}
			f.NewBlock()
			f.NewReg()
		}
		if p.String() != before {
			t.Errorf("%s: rewriting the clone changed the original", s)
		}
	}
}

// TestFromSourceReportsUnrolling: the flag is what lets a caller skip the
// factor-1 build, so it must be false exactly when the IR equals it.
func TestFromSourceReportsUnrolling(t *testing.T) {
	loop := "global a[8];\nfunc main() { var s = 0; for var i = 0; i < 8; i = i + 1 { a[i] = i; s = s + a[i]; } return s; }"
	noLoop := "func f(n) { if n <= 0 { return 0; } return n + f(n - 1); }\nfunc main() { var i = 0; while i < 3 { i = i + 1; } return f(i); }"
	for _, tc := range []struct {
		name, src string
		unroll    int
		want      bool
	}{
		{"counted loop, factor 4", loop, 4, true},
		{"counted loop, factor 1", loop, 1, false},
		{"counted loop, factor 0", loop, 0, false},
		{"no counted loop, factor 4", noLoop, 4, false},
	} {
		p, _, unrolled, err := FromSource(tc.src, tc.unroll, 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if unrolled != tc.want {
			t.Errorf("%s: unrolled = %v, want %v", tc.name, unrolled, tc.want)
		}
		rolled, _, _, err := FromSource(tc.src, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if same := p.String() == rolled.String(); same == tc.want {
			t.Errorf("%s: IR equals the factor-1 build = %v, unrolled = %v", tc.name, same, unrolled)
		}
	}
	if _, _, _, err := FromSource("func main() { return x; }", 4, 1); err == nil || !strings.HasPrefix(err.Error(), "frontend: ") {
		t.Errorf("front-end error not labelled with its stage: %v", err)
	}
}

// benchSubjects are the layer benchmarks' inputs: the "mixed"-family
// program of testprogs.CorpusSpecs(100, 1) with the largest function (728
// instructions as built at unroll 4), where a pass that is not linear in
// the block shows, and ammp, the kernel the memory tier does most for.
var benchSubjects = []string{"gen:mixed:3745987421742060995", "ammp"}

func largestFunc(p *Program) (fi, instrs int) {
	for i, f := range p.Funcs {
		n := 0
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
		if n > instrs {
			fi, instrs = i, n
		}
	}
	return fi, instrs
}

// benchPass times pass on a fresh copy of each subject's IR at optLevel.
func benchPass(b *testing.B, optLevel int, pass func(*Program)) {
	for _, s := range benchSubjects {
		benchOn(b, s, mustFromSource(b, s, 4, optLevel), pass)
	}
}

// benchOn times pass on a fresh copy of p per iteration (the passes rewrite
// their input; cloning is outside the timer). It counts to b.N itself:
// go1.24's b.Loop never finishes at the default -benchtime when the body
// stops and restarts the timer.
func benchOn(b *testing.B, name string, p *Program, pass func(*Program)) {
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := p.Clone()
			b.StartTimer()
			pass(c)
		}
	})
}

func BenchmarkOptimize(b *testing.B) {
	benchPass(b, OptNone, func(p *Program) { p.Optimize() })
}

// BenchmarkOptimizeMemory adds a third subject, wideBlockSrc: one block
// that holds hundreds of memory facts at once, where a tier that rescans
// its facts on every definition or store is quadratic.
func BenchmarkOptimizeMemory(b *testing.B) {
	pass := func(p *Program) { p.OptimizeMemory() }
	benchPass(b, 0, pass)
	p, _, _, err := FromSource(wideBlockSrc(150), 4, 0)
	if err != nil {
		b.Fatal(err)
	}
	benchOn(b, "wide-block", p, pass)
}

// wideBlockSrc is a main of one straight-line block: n stores to constant
// addresses of a and a reload of each, then n stores through one computed
// base into b and a reload of each, every store of a value of its own. At
// n = 150 the block is 1,953 instructions at -O0, and each reload
// meets up to n live facts.
func wideBlockSrc(n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "global a[%d];\nglobal b[%d];\nfunc main() {\n\tvar x = a[0];\n\tvar s = 0;\n", n, 2*n)
	for k := 0; k < n; k++ {
		fmt.Fprintf(&sb, "\ta[%d] = x * 3 + %d;\n", k, k)
	}
	for k := n - 1; k >= 0; k-- {
		fmt.Fprintf(&sb, "\ts = s + a[%d];\n", k)
	}
	for k := 0; k < n; k++ {
		fmt.Fprintf(&sb, "\tb[x + %d] = x + %d;\n", k, 2*k)
	}
	for k := n - 1; k >= 0; k-- {
		fmt.Fprintf(&sb, "\ts = s + b[x + %d];\n", k)
	}
	sb.WriteString("\treturn s;\n}\n")
	return sb.String()
}

// BenchmarkLocalCSE runs the pass over every block of the largest
// function, as built (the move-heavy form the first optimizer round sees),
// on one scratch as Optimize does.
func BenchmarkLocalCSE(b *testing.B) {
	benchPass(b, OptNone, func(p *Program) {
		var sc optScratch
		fi, _ := largestFunc(p)
		f := p.Funcs[fi]
		for _, blk := range f.Blocks {
			sc.localCSE(f, blk)
		}
	})
}

var sinkLive []RegSet

func BenchmarkLiveness(b *testing.B) {
	for _, s := range benchSubjects {
		p := mustFromSource(b, s, 4, OptNone)
		fi, _ := largestFunc(p)
		b.Run(s, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sinkLive, _ = p.Funcs[fi].Liveness()
			}
		})
	}
}
