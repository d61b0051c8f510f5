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
// A function with no load or store has nothing for the tier to find and
// skips its rounds.
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
	var m memScratch
	touches := p.MemTouches()
	for _, f := range p.Funcs {
		loads, stores := countMemOps(f)
		st := MemOptStats{
			MemBefore:    loads + stores,
			InstrsBefore: countInstrs(f),
		}
		touched := false
		if loads+stores > 0 {
			// The tier rewrites loads into moves of the same destination
			// and deletes stores, so no register gains or loses a
			// definition and the constant addresses hold for every round.
			m.constDefs(f)
			// The forwarding passes reveal new dead stores (a forwarded load
			// no longer reads the first store) and vice versa, so alternate
			// to a bounded fixpoint. Without a load there is nothing to
			// forward, and the rounds never make one.
			for round := 0; round < maxRounds; round++ {
				changed := false
				if loads > 0 {
					changed = m.forwardLocal(f, touches, &st)
					if m.forwardMemory(f, touches, &st) {
						changed = true
					}
				}
				if m.eliminateDeadStores(f, &st) {
					changed = true
				}
				if !changed {
					break
				}
				touched = true
			}
		}
		loads, stores = countMemOps(f)
		st.MemAfter = loads + stores
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

// countMemOps returns f's static KLoad and KStore counts.
func countMemOps(f *Func) (loads, stores int64) {
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			switch b.Instrs[i].Kind {
			case KLoad:
				loads++
			case KStore:
				stores++
			}
		}
	}
	return loads, stores
}

func countInstrs(f *Func) int64 {
	n := int64(0)
	for _, b := range f.Blocks {
		n += int64(len(b.Instrs))
	}
	return n
}

// memFact records where a "mem[addr] == val" fact came from, for the
// per-pass counters: a store (forwarding) or a load (reuse/promotion).
type memFact struct {
	val       Reg
	fromStore bool
}

// memScratch is the memory tier's working state, made once per
// OptimizeMemory call and reused by every function, round and block, as
// optScratch is by the base passes: what a pass knows about a register or a
// value number lives in a table slot stamped with the function or block
// pass that last wrote it, so starting one clears nothing.
type memScratch struct {
	// constDefs, per function: each register's definition count and, for
	// a single-definition constant, its address key.
	cepoch uint32
	cregs  []constSlot
	cids   map[int64]int32 // constant value -> its address key
	nconst int32           // address keys that are constants

	// forwardLocal, per block: the number of each register's current
	// value, the linear term of each number (terms[0] is no value: root 0
	// is the constants'), and the numbers already given to a term or to
	// an expression.
	vepoch uint32
	vregs  []vnSlot
	terms  []term
	termVN map[term]int32
	exprVN map[exprKey]int32

	// forwardMemory, per call: each block's predecessors (those of block
	// b are predList[predOff[b]:predOff[b+1]]) and exit facts, whose lists
	// outFacts holds end to end.
	predOff  []int32
	predList []int32
	out      []blockOut
	outFacts []factEntry

	facts factTable
}

type constSlot struct {
	stamp uint32
	defs  int32
	key   int32 // address key of a single-definition constant, else -1
}

// constDefs gives every register defined exactly once, by a KConst, the
// address key of its constant: such a register holds that value at every
// use, so it keys memory facts that survive block boundaries, shared by
// every register that re-materializes the same constant. Every other
// register address keys as itself (canon).
func (s *memScratch) constDefs(f *Func) {
	s.cepoch++
	s.cregs = ensureLen(s.cregs, f.NumRegs)
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if !in.HasDst() || in.Dst == NoReg {
				continue
			}
			c := &s.cregs[in.Dst]
			if c.stamp != s.cepoch {
				*c = constSlot{stamp: s.cepoch, key: -1}
			}
			c.defs++
		}
	}
	if s.cids == nil {
		s.cids = make(map[int64]int32)
	}
	clear(s.cids)
	s.nconst = 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Kind != KConst || s.cregs[in.Dst].defs != 1 {
				continue
			}
			key, ok := s.cids[in.Imm]
			if !ok {
				key = s.nconst
				s.cids[in.Imm] = key
				s.nconst++
			}
			s.cregs[in.Dst].key = key
		}
	}
}

// canon is r's canonical address key and its aliasing group: a constant's
// key and group 0, or the register's own key and a group of its own.
// Two constants alias only when equal; every other pairing may alias.
func (s *memScratch) canon(r Reg) (key, group int32) {
	if c := &s.cregs[r]; c.stamp == s.cepoch && c.key >= 0 {
		return c.key, 0
	}
	return s.nconst + int32(r), 1 + int32(r)
}

// killReg drops every fact that mentions r as a register address or as the
// value. Constant-keyed addresses are immune to register redefinition.
func (s *memScratch) killReg(r Reg) {
	if r == NoReg {
		return
	}
	s.facts.del(s.nconst + int32(r))
	s.facts.killVal(r)
}

// transfer applies one instruction to the fact set without rewriting.
func (s *memScratch) transfer(in *Instr, touches []bool) {
	t := &s.facts
	switch in.Kind {
	case KLoad:
		s.killReg(in.Dst)
		// A load through its own destination register destroys the address
		// (never constant-keyed: such a register has two definitions).
		if in.A != in.Dst {
			k, g := s.canon(in.A)
			if _, ok := t.get(k); !ok {
				t.set(k, g, memFact{val: in.Dst})
			}
		}
		return
	case KStore:
		// A store kills every fact it may alias.
		k, g := s.canon(in.A)
		t.keepOnly(g)
		t.set(k, g, memFact{val: in.B, fromStore: true})
		return
	case KCall:
		if touches[in.Callee] {
			t.keepOnly(-1)
		}
	}
	if in.HasDst() {
		s.killReg(in.Dst)
	}
}

// blockOut is a block's exit facts in forwardMemory's fixpoint,
// outFacts[lo:hi]; until done they are TOP (not yet computed — every fact
// holds), used only as the optimistic dataflow initializer.
type blockOut struct {
	done   bool
	lo, hi int32
}

// preds fills predOff and predList with f's predecessor lists, in
// Func.Preds' order.
func (s *memScratch) preds(f *Func) {
	n := len(f.Blocks)
	off := append(s.predOff[:0], make([]int32, n+1)...)
	for _, b := range f.Blocks {
		for _, sc := range b.Succs() {
			off[sc+1]++
		}
	}
	for i := range n {
		off[i+1] += off[i]
	}
	s.predList = ensureLen(s.predList, int(off[n]))
	// Each edge goes to its target's cursor, off[sc], which ends at the
	// next block's start; shifting the cursors up a block restores the
	// starts.
	for _, b := range f.Blocks {
		for _, sc := range b.Succs() {
			s.predList[off[sc]] = int32(b.ID)
			off[sc]++
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	s.predOff = off
}

// forwardMemory is the availability dataflow plus rewriting: loads whose
// address has a known memory fact become register moves. Returns whether
// anything was rewritten.
func (s *memScratch) forwardMemory(f *Func, touches []bool, st *MemOptStats) bool {
	n := len(f.Blocks)
	s.preds(f)
	rpo := f.rpo()
	t := &s.facts
	t.size(int(s.nconst)+f.NumRegs, 1+f.NumRegs, f.NumRegs)
	out := append(s.out[:0], make([]blockOut, n)...)
	s.out = out
	s.outFacts = s.outFacts[:0]

	// Fixpoint over block summaries. Termination: out sets start at TOP and
	// only ever shrink (the meet is intersection, every transfer is
	// monotone), so the loop must run until stable — stopping early would
	// leave sets too large, which is the unsound direction.
	for {
		changed := false
		for _, bi := range rpo {
			b := f.Blocks[bi]
			s.entryFacts(f, bi)
			for i := range b.Instrs {
				s.transfer(&b.Instrs[i], touches)
			}
			if o := &out[bi]; !o.done || !t.holds(s.outFacts[o.lo:o.hi]) {
				// The list moves to the end of outFacts; the old one is
				// garbage until the next call.
				o.lo = int32(len(s.outFacts))
				s.outFacts = t.appendTo(s.outFacts)
				o.hi = int32(len(s.outFacts))
				o.done = true
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
		s.entryFacts(f, bi)
		t.markEntry()
		for i := range b.Instrs {
			ins := &b.Instrs[i]
			if ins.Kind == KLoad {
				k, _ := s.canon(ins.A)
				if fact, ok := t.get(k); ok && fact.val != ins.Dst {
					switch {
					case fact.fromStore:
						st.StoresForwarded++
					case t.keys[k].entry:
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
			s.transfer(ins, touches)
			t.settle()
		}
	}
	return rewrote
}

// entryFacts starts the fact set at a block's entry: the meet over
// predecessor outs (TOP preds are skipped — optimistic initialization),
// empty for the entry block and for blocks whose predecessors are all TOP.
func (s *memScratch) entryFacts(f *Func, bi int) {
	t := &s.facts
	t.begin()
	if bi == f.Entry {
		return
	}
	first := true
	for _, p := range s.predList[s.predOff[bi]:s.predOff[bi+1]] {
		o := &s.out[p]
		if !o.done {
			continue // TOP: identity of the meet
		}
		facts := s.outFacts[o.lo:o.hi]
		if first {
			for _, e := range facts {
				t.set(e.key, e.group, e.fact)
			}
			first = false
		} else {
			t.intersect(facts)
		}
	}
}

// term is a value number's linear decomposition (root number + constant
// offset): constants are {root 0, c}; adding or subtracting a constant
// shifts the offset; everything else roots at itself with offset 0.
type term struct {
	root int32
	off  int64
}

// exprKey is an expression forwardLocal numbers: an operation with the
// numbers of its operands, or, for a sum or difference of two
// non-constants, with the roots of its operands' terms.
type exprKey struct {
	op   isa.Opcode
	a, b int32
}

type vnSlot struct {
	stamp uint32
	vn    int32
}

// newVN gives t the next value number.
func (s *memScratch) newVN(t term) int32 {
	v := int32(len(s.terms))
	s.terms = append(s.terms, t)
	return v
}

// fresh is an opaque value: a root of its own.
func (s *memScratch) fresh() int32 { return s.newVN(term{root: int32(len(s.terms))}) }

// vnFor is the number of the value t, given one the first time t is seen.
// A root with offset 0 is the root's own number.
func (s *memScratch) vnFor(t term) int32 {
	if t.root != 0 && t.off == 0 {
		return t.root
	}
	if v, ok := s.termVN[t]; ok {
		return v
	}
	v := s.newVN(t)
	s.termVN[t] = v
	return v
}

// exprVNFor is the number of the expression k, a fresh root the first
// time k is seen.
func (s *memScratch) exprVNFor(k exprKey) int32 {
	if v, ok := s.exprVN[k]; ok {
		return v
	}
	v := s.fresh()
	s.exprVN[k] = v
	return v
}

// getVN is the number of r's current value; a register the block has not
// defined is a block input, an opaque but stable value.
func (s *memScratch) getVN(r Reg) int32 {
	e := &s.vregs[r]
	if e.stamp != s.vepoch {
		*e = vnSlot{stamp: s.vepoch, vn: s.fresh()}
	}
	return e.vn
}

// define records that r now holds value v, after dropping the facts whose
// value r held.
func (s *memScratch) define(r Reg, v int32) {
	if r == NoReg {
		return
	}
	s.facts.killVal(r)
	s.vregs[r] = vnSlot{stamp: s.vepoch, vn: v}
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
// is redefined, on stores to addresses not provably distinct, and on calls
// into memory-touching callees. Soundness of the rewrite is the usual
// same-block argument: the covering access executes earlier in the same
// block through a provably equal address, so the load's value and its trap
// (if the address is bad, the earlier access faulted first) are both
// preserved.
//
// Two addresses with the same root and different offsets are provably
// distinct — int64 addition is injective in its constant addend — which
// is what disambiguates posX[i] from posY[i] (same index root, two array
// bases) and a[i] from a[i+1] across unrolled loop bodies; only a root's
// own group survives a store through it. A sum or difference of two
// non-constant values roots at a synthetic number for the pair, so
// `(r*20 + c) + 1` and `r*20 + (c+1)` normalize to the same root with
// offsets 0 and 1 (substituted induction variables in unrolled bodies keep
// the builder's left-associated shape, so pairing one level deep is
// enough). Only loads are rewritten, so a block is numbered up to its last
// load and a block without one is skipped.
func (s *memScratch) forwardLocal(f *Func, touches []bool, st *MemOptStats) bool {
	if s.termVN == nil {
		s.termVN = make(map[term]int32)
		s.exprVN = make(map[exprKey]int32)
	}
	s.vregs = ensureLen(s.vregs, f.NumRegs)
	t := &s.facts
	rewrote := false
	for _, b := range f.Blocks {
		last := -1
		for i := range b.Instrs {
			if b.Instrs[i].Kind == KLoad {
				last = i
			}
		}
		if last < 0 {
			continue
		}
		s.vepoch++
		s.terms = append(s.terms[:0], term{})
		clear(s.termVN)
		clear(s.exprVN)
		// A number keys facts and roots a group. An instruction numbers at
		// most four values (two block inputs, a pair root and its term).
		nums := 4*(last+1) + 1
		t.size(nums, nums, f.NumRegs)
		t.begin()
		for i := range b.Instrs[:last+1] {
			ins := &b.Instrs[i]
			switch ins.Kind {
			case KConst:
				s.define(ins.Dst, s.vnFor(term{off: ins.Imm}))
			case KAlu:
				unary := ins.Op.NumInputs() == 1
				av := s.getVN(ins.A)
				bv := av
				if !unary {
					bv = s.getVN(ins.B)
				}
				ta, tb := s.terms[av], s.terms[bv]
				if unary {
					tb = term{} // unary ops ignore B; EvalALU takes 0
				}
				var v int32
				switch {
				case ta.root == 0 && tb.root == 0:
					// All operands constant: the value is too.
					v = s.vnFor(term{off: isa.EvalALU(ins.Op, ta.off, tb.off)})
				case ins.Op == isa.OpAdd && ta.root == 0:
					v = s.vnFor(term{root: tb.root, off: tb.off + ta.off})
				case ins.Op == isa.OpAdd && tb.root == 0:
					v = s.vnFor(term{root: ta.root, off: ta.off + tb.off})
				case ins.Op == isa.OpSub && tb.root == 0:
					v = s.vnFor(term{root: ta.root, off: ta.off - tb.off})
				case ins.Op == isa.OpAdd:
					// Sum of two non-constants: root on the canonical
					// (commutative) pair of roots, offsets add.
					ra, rb := ta.root, tb.root
					if ra > rb {
						ra, rb = rb, ra
					}
					v = s.vnFor(term{root: s.exprVNFor(exprKey{isa.OpAdd, ra, rb}), off: ta.off + tb.off})
				case ins.Op == isa.OpSub:
					v = s.vnFor(term{root: s.exprVNFor(exprKey{isa.OpSub, ta.root, tb.root}), off: ta.off - tb.off})
				default:
					// Never OpAdd or OpSub, so these keys do not meet the
					// pair roots' above.
					v = s.exprVNFor(exprKey{ins.Op, av, bv})
				}
				s.define(ins.Dst, v)
			case KLoad:
				av := s.getVN(ins.A)
				if fact, ok := t.get(av); ok && fact.val != ins.Dst {
					if fact.fromStore {
						st.StoresForwarded++
					} else {
						st.LoadsReused++
					}
					src := fact.val
					*ins = Instr{Kind: KAlu, Op: isa.OpOr, Dst: ins.Dst, A: src, B: src}
					rewrote = true
					s.define(ins.Dst, s.getVN(src)) // the move copies src's value
					continue
				}
				s.define(ins.Dst, s.fresh())
				t.set(av, s.terms[av].root, memFact{val: ins.Dst})
			case KStore:
				av := s.getVN(ins.A)
				g := s.terms[av].root
				t.keepOnly(g) // same root, different offset: cannot alias
				t.set(av, g, memFact{val: ins.B, fromStore: true})
			case KCall:
				if touches[ins.Callee] {
					t.keepOnly(-1)
				}
				s.define(ins.Dst, s.fresh())
			default:
				if ins.HasDst() {
					s.define(ins.Dst, s.fresh())
				}
			}
		}
	}
	return rewrote
}

// eliminateDeadStores deletes a store when the next memory-touching event
// in its own block is another store through the same canonical address,
// with only pure non-trapping instructions between. The window is
// deliberately local: the overwriting store always executes once the dead
// one has (same block, no intervening trap source), so deletion preserves
// the final memory image, the trap schedule, and every load's value.
func (s *memScratch) eliminateDeadStores(f *Func, st *MemOptStats) bool {
	changed := false
	for _, b := range f.Blocks {
		w := 0
		for i := range b.Instrs {
			if b.Instrs[i].Kind == KStore && s.storeIsDead(b, i) {
				st.DeadStores++
				changed = true
				continue
			}
			if w != i {
				b.Instrs[w] = b.Instrs[i]
			}
			w++
		}
		clear(b.Instrs[w:])
		b.Instrs = b.Instrs[:w]
	}
	return changed
}

// storeIsDead reports whether the store at b.Instrs[i] is overwritten
// before any possible observer.
func (s *memScratch) storeIsDead(b *Block, i int) bool {
	a := b.Instrs[i].A
	key, group := s.canon(a)
	for j := i + 1; j < len(b.Instrs); j++ {
		in := &b.Instrs[j]
		switch in.Kind {
		case KStore:
			k, _ := s.canon(in.A)
			return k == key
		case KLoad:
			return false
		case KCall:
			return false
		}
		if in.HasDst() && group != 0 && in.Dst == a {
			return false
		}
	}
	return false
}

// factTable is a set of memory facts, "mem[key] holds val", over dense keys
// in aliasing groups: a store keeps only its own group (for forwardLocal a
// group is a value-number root, whose offsets are provably distinct
// addresses; for forwardMemory the constants are one group and each
// register address a group of its own), then overwrites its key's fact.
// Every kill costs what it removes: each group chains its keys, live lists
// the groups that have a chain, and each register chains the keys whose
// fact held it as value. A chained key may have lost its fact since (killed
// another way, or overwritten with another value), so each is checked
// against the key's slot before it is acted on, as localCSE checks its
// index. Slots are stamped with the set they belong to, like optScratch's,
// and the chains live in one pool: begin starts a new, empty set and
// clears nothing.
type factTable struct {
	epoch   uint32
	keys    []factSlot // by key
	groups  []chain    // by group: its keys
	vals    []chain    // by register: the keys whose fact held it
	links   []link     // the chains' links
	live    []int32    // groups whose chain is stamped with this set
	n       int        // facts that hold
	mark    uint32     // intersect's last generation
	touched []int32    // keys holding an entry fact that changed since settle
}

type factSlot struct {
	stamp  uint32
	live   bool // the fact holds
	listed bool // the key is on its group's chain
	// entry: the fact has held unchanged since markEntry, which recorded
	// it in was.
	entry bool
	mark  uint32
	fact  memFact
	was   memFact
}

// chain is a list of keys in links, newest first; a chain stamped with
// another set is empty.
type chain struct {
	stamp uint32
	head  int32
}

type link struct {
	key, next int32
}

// size makes the tables cover nkeys keys, ngroups groups and nregs
// registers.
func (t *factTable) size(nkeys, ngroups, nregs int) {
	t.keys = ensureLen(t.keys, nkeys)
	t.groups = ensureLen(t.groups, ngroups)
	t.vals = ensureLen(t.vals, nregs)
}

// begin empties the set.
func (t *factTable) begin() {
	t.epoch++
	t.links = t.links[:0]
	t.live = t.live[:0]
	t.n = 0
	t.touched = t.touched[:0]
}

// push puts k at the head of c, reporting whether c was empty.
func (t *factTable) push(c *chain, k int32) bool {
	empty := c.stamp != t.epoch
	if empty {
		*c = chain{stamp: t.epoch, head: -1}
	}
	t.links = append(t.links, link{key: k, next: c.head})
	c.head = int32(len(t.links) - 1)
	return empty
}

func (t *factTable) get(k int32) (memFact, bool) {
	if s := &t.keys[k]; s.stamp == t.epoch && s.live {
		return s.fact, true
	}
	return memFact{}, false
}

// set makes f the fact of key k, in group g (a key's group never changes).
func (t *factTable) set(k, g int32, f memFact) {
	s := &t.keys[k]
	if s.stamp != t.epoch {
		*s = factSlot{stamp: t.epoch}
	}
	if s.entry {
		t.touched = append(t.touched, k)
	}
	if !s.live {
		s.live = true
		t.n++
	}
	s.fact = f
	if !s.listed {
		s.listed = true
		if t.push(&t.groups[g], k) {
			t.live = append(t.live, g)
		}
	}
	t.push(&t.vals[f.val], k)
}

func (t *factTable) del(k int32) {
	if s := &t.keys[k]; s.stamp == t.epoch && s.live {
		s.live = false
		t.n--
		if s.entry {
			t.touched = append(t.touched, k)
		}
	}
}

// killVal drops every fact whose value is r.
func (t *factTable) killVal(r Reg) {
	c := &t.vals[r]
	if c.stamp != t.epoch {
		return
	}
	for l := c.head; l >= 0; l = t.links[l].next {
		k := t.links[l].key
		if f, ok := t.get(k); ok && f.val == r {
			t.del(k)
		}
	}
	c.stamp = 0
}

// keepOnly drops every fact outside group g (all of them for g = -1).
func (t *factTable) keepOnly(g int32) {
	kept := t.live[:0]
	for _, h := range t.live {
		if h == g {
			kept = append(kept, h)
			continue
		}
		c := &t.groups[h]
		for l := c.head; l >= 0; l = t.links[l].next {
			k := t.links[l].key
			t.del(k)
			t.keys[k].listed = false
		}
		c.stamp = 0
	}
	t.live = kept
}

// each calls fn on every fact of the set.
func (t *factTable) each(fn func(k, g int32, s *factSlot)) {
	for _, g := range t.live {
		for l := t.groups[g].head; l >= 0; l = t.links[l].next {
			k := t.links[l].key
			if s := &t.keys[k]; s.live {
				fn(k, g, s)
			}
		}
	}
}

// factEntry is one fact of a set kept outside the table.
type factEntry struct {
	key, group int32
	fact       memFact
}

// appendTo appends the set's facts to out.
func (t *factTable) appendTo(out []factEntry) []factEntry {
	t.each(func(k, g int32, s *factSlot) {
		out = append(out, factEntry{key: k, group: g, fact: s.fact})
	})
	return out
}

// holds reports whether the set is exactly the facts of list.
func (t *factTable) holds(list []factEntry) bool {
	if t.n != len(list) {
		return false
	}
	for _, e := range list {
		if f, ok := t.get(e.key); !ok || f != e.fact {
			return false
		}
	}
	return true
}

// intersect keeps only the facts that list holds too, with the same value
// and provenance.
func (t *factTable) intersect(list []factEntry) {
	t.mark++
	for _, e := range list {
		if s := &t.keys[e.key]; s.stamp == t.epoch && s.live && s.fact == e.fact {
			s.mark = t.mark
		}
	}
	t.each(func(k, _ int32, s *factSlot) {
		if s.mark != t.mark {
			t.del(k)
		}
	})
}

// markEntry records every fact of the set as inherited from the block's
// predecessors. A fact keeps that mark while it holds unchanged; settle,
// after each instruction, rechecks only the keys the instruction touched.
func (t *factTable) markEntry() {
	t.each(func(_, _ int32, s *factSlot) {
		s.entry, s.was = true, s.fact
	})
}

func (t *factTable) settle() {
	for _, k := range t.touched {
		if s := &t.keys[k]; s.entry && (!s.live || s.fact != s.was) {
			s.entry = false
		}
	}
	t.touched = t.touched[:0]
}

// ensureLen returns s with at least n elements, the new ones zero.
func ensureLen[T any](s []T, n int) []T {
	if n > len(s) {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}
