package cfgir

import "wavescalar/internal/isa"

// This file is the memory-optimization tier (opt level 1, the compilers'
// -O): passes that shrink the program's KLoad/KStore population before the
// wave backend ever plans its per-wave memory ordering chains. Every
// load/store the tier removes is one fewer slot in a wave-ordered memory
// chain, so the tier attacks the architecture's central bottleneck at
// compile time.
//
// The aliasing model is deliberately syntactic and conservative. A memory
// fact "mem[a] == v" (address a currently holds a value equal to register
// v) is established by a load or a store through a, and is killed by:
//
//   - any store that may alias it (two constant addresses alias only when
//     equal; every other address pairing is assumed to alias),
//   - any call whose callee transitively touches memory,
//   - any redefinition of the address register or of v (registers are
//     multiply assigned).
//
// Addresses are canonicalized before keying: a register defined exactly
// once, by a constant, keys as that constant value. The builder
// re-materializes global addresses as a fresh constant register per use, so
// without canonicalization no two blocks would ever agree on an address.
// A single-definition constant register holds its constant at every use
// (definitions precede uses in builder output and no pass reorders code
// across them), so the constant key is exact, never killed by register
// redefinition, and lets facts about globals survive across blocks.
//
// Computed addresses (array indexing) get a second, block-local treatment:
// within one block, addresses are value-numbered — constants by value, ALU
// results by (op, operand-number) — so two registers that recompute the
// same address expression from the same inputs provably hold equal
// addresses even though the builder gave every occurrence a fresh register.
// Value numbers name values, not registers, so a number stays valid when
// the registers that produced it are overwritten; the facts keyed by them
// still die on aliasing stores and memory-touching calls exactly as above
// (two numbered addresses are provably distinct only when both are
// constants). This is what lets the tier fire on real array kernels, where
// e.g. a butterfly reads re[i1] twice through two distinct address
// registers.
//
// Facts flow forward across block boundaries as a must-analysis: a fact
// holds at block entry only when every predecessor ends with it. That is
// what makes the tier's scalar replacement safe around loops — a loop body
// that stores through any address kills the fact on the back edge, so a
// header load is only promoted when no path through the loop rewrites
// memory.
//
// Trap behavior is preserved by construction: a load is only replaced when
// every path to it already performed a load or store through the same
// canonical address with no intervening kill, so an out-of-range address
// has already faulted before the eliminated access; a store is only deleted
// when the next memory-touching event in its block is provably a store
// through the same canonical address, with only non-trapping pure
// instructions between (ALU ops are total: division by zero yields 0).
type MemOptStats struct {
	// StoresForwarded counts loads replaced by the value of a preceding
	// store to the same address (store-to-load forwarding).
	StoresForwarded int64
	// LoadsReused counts loads replaced by a preceding load of the same
	// address within the same block (redundant-load elimination beyond the
	// base optimizer's until-next-store CSE window — the facts here survive
	// an intervening same-address store).
	LoadsReused int64
	// LoadsPromoted counts loads replaced by a value carried across a block
	// boundary (scalar replacement of address-stable loads).
	LoadsPromoted int64
	// DeadStores counts stores deleted because a later store in the same
	// block overwrites the same address with no possible intervening
	// observer.
	DeadStores int64
	// MemBefore/MemAfter are the static KLoad+KStore counts around the
	// tier; InstrsBefore/InstrsAfter the total static instruction counts
	// (including the cleanup rounds that erase the moves the tier leaves
	// behind).
	MemBefore, MemAfter       int64
	InstrsBefore, InstrsAfter int64
}

// Add folds o into s (all fields commutative sums).
func (s *MemOptStats) Add(o MemOptStats) {
	s.StoresForwarded += o.StoresForwarded
	s.LoadsReused += o.LoadsReused
	s.LoadsPromoted += o.LoadsPromoted
	s.DeadStores += o.DeadStores
	s.MemBefore += o.MemBefore
	s.MemAfter += o.MemAfter
	s.InstrsBefore += o.InstrsBefore
	s.InstrsAfter += o.InstrsAfter
}

// Eliminated reports the net static instruction reduction.
func (s *MemOptStats) Eliminated() int64 { return s.InstrsBefore - s.InstrsAfter }

// OptimizeMemory runs the memory tier on every function — available-memory
// forwarding (store-to-load forwarding, redundant-load elimination, and
// cross-block scalar replacement as one dataflow problem), then local
// dead-store elimination — followed by the base pass pipeline to copy-
// propagate and dead-code-eliminate the moves the tier leaves behind.
// Callers run the base Optimize first; the tier assumes compacted blocks.
//
// The cleanup leaves out a function the tier did not touch and on which
// Optimize had converged: its last round left every instruction as it
// found it, so the base passes are at their fixpoint there and one more
// run would change nothing. That is nearly every function; a function
// Optimize gave up on at its round bound gets the cleanup even when the
// tier left it alone — those further rounds can still change it.
func (p *Program) OptimizeMemory() MemOptStats {
	var total MemOptStats
	var s optScratch
	touches := p.MemTouches()
	for _, f := range p.Funcs {
		st := MemOptStats{
			MemBefore:    countMemOps(f),
			InstrsBefore: countInstrs(f),
		}
		// The forwarding pass reveals new dead stores (a forwarded load no
		// longer reads the first store) and vice versa, so alternate to a
		// bounded fixpoint.
		touched := false
		for round := 0; round < maxRounds; round++ {
			changed := forwardLocal(f, touches, &st)
			constOf := constDefs(f)
			if forwardMemory(f, touches, constOf, &st) {
				changed = true
			}
			if eliminateDeadStores(f, touches, constOf, &st) {
				changed = true
			}
			if !changed {
				break
			}
			touched = true
		}
		st.MemAfter = countMemOps(f)
		// Clean up the or-moves and newly dead address arithmetic, and count
		// the instructions after it, so InstrsAfter reports what the
		// backends actually consume.
		if touched || !f.converged {
			s.optimize(f)
		}
		st.InstrsAfter = countInstrs(f)
		total.Add(st)
	}
	return total
}

// MemTouches reports, per function, whether it touches memory directly or
// transitively through calls. Functions that cannot touch memory are
// transparent to the tier's memory facts, and a call to one takes no slot
// in its wave's memory ordering chain. Recursive cycles converge because
// the value only moves false -> true.
func (p *Program) MemTouches() []bool {
	touches := make([]bool, len(p.Funcs))
	for i, f := range p.Funcs {
		for _, b := range f.Blocks {
			for j := range b.Instrs {
				if b.Instrs[j].Kind == KLoad || b.Instrs[j].Kind == KStore {
					touches[i] = true
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i, f := range p.Funcs {
			if touches[i] {
				continue
			}
			for _, b := range f.Blocks {
				for j := range b.Instrs {
					in := &b.Instrs[j]
					if in.Kind == KCall && touches[in.Callee] {
						touches[i] = true
						changed = true
					}
				}
			}
		}
	}
	return touches
}

func countMemOps(f *Func) int64 {
	n := int64(0)
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Kind == KLoad || b.Instrs[i].Kind == KStore {
				n++
			}
		}
	}
	return n
}

func countInstrs(f *Func) int64 {
	n := int64(0)
	for _, b := range f.Blocks {
		n += int64(len(b.Instrs))
	}
	return n
}

// constDefs maps every register defined exactly once, by a KConst, to its
// constant value. Such a register holds that value at every use, so it can
// serve as a canonical address key that survives block boundaries.
func constDefs(f *Func) map[Reg]int64 {
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

// memFact records where a "mem[addr] == val" fact came from, for the
// per-pass counters: a store (forwarding) or a load (reuse/promotion).
type memFact struct {
	val       Reg
	fromStore bool
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

// forwardMemory is the availability dataflow plus rewriting: loads whose
// address has a known memory fact become register moves. Returns whether
// anything was rewritten.
func forwardMemory(f *Func, touches []bool, constOf map[Reg]int64, st *MemOptStats) bool {
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

// forwardLocal is the block-local, value-numbered companion to
// forwardMemory. Where the dataflow pass keys facts by canonical address
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
func forwardLocal(f *Func, touches []bool, st *MemOptStats) bool {
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

// eliminateDeadStores deletes a store when the next memory-touching event
// in its own block is another store through the same canonical address,
// with only pure non-trapping instructions between. The window is
// deliberately local: the overwriting store always executes once the dead
// one has (same block, no intervening trap source), so deletion preserves
// the final memory image, the trap schedule, and every load's value.
func eliminateDeadStores(f *Func, touches []bool, constOf map[Reg]int64, st *MemOptStats) bool {
	changed := false
	for _, b := range f.Blocks {
		keep := b.Instrs[:0]
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			if in.Kind == KStore && storeIsDead(b, i, constOf) {
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

// storeIsDead reports whether the store at b.Instrs[i] is overwritten
// before any possible observer.
func storeIsDead(b *Block, i int, constOf map[Reg]int64) bool {
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
