// Package wavec is the WaveScalar compiler backend. It lowers CFG IR into
// tagged-token dataflow graphs (isa.Program):
//
//   - The CFG of each function is partitioned into waves — single-entry
//     acyclic regions. Loop headers and control-flow joins with mixed-wave
//     predecessors seed new waves; every other block joins its
//     predecessors' wave.
//   - Every value crossing a wave boundary passes through a WAVE-ADVANCE,
//     so the dynamic waves of an activation are numbered consecutively —
//     the invariant the wave-ordered store buffer relies on.
//   - Branches become φ⁻¹ STEER instructions: one steer per live value,
//     gated by the branch predicate. (With Options.IfConvert, small pure
//     diamonds instead become φ SELECT instructions upstream in the IR.)
//   - A synthetic trigger value threads through every block so constants
//     fire and memory-silent blocks can announce their MEMORY-NOPs.
//   - Memory operations receive wave-ordered annotations: per-wave sequence
//     numbers with predecessor/successor links, wildcards across branches,
//     MEMORY-NOPs in memory-silent blocks, chain-terminating nops on wave
//     exits, MemCall slots at call sites, and MemEnd on returns.
//
// Compile mutates its input program (critical-edge splitting, optional
// if-conversion).
package wavec

import (
	"fmt"
	"math/bits"

	"wavescalar/internal/cfgir"
	"wavescalar/internal/isa"
)

// Options selects compilation strategy.
type Options struct {
	// IfConvert lowers small pure if/else diamonds to φ SELECT
	// instructions instead of steers (experiment E9).
	IfConvert bool
}

// Compile lowers a whole program. The input must be built (and usually
// optimized).
//
// Compile consumes p: if-conversion and critical-edge splitting rewrite
// its blocks in place, so afterwards p is no longer the program the
// optimizer produced and must not be compiled again or handed to another
// backend. A caller that wants more than one binary from one IR passes a
// p.Clone() to every call but the last.
func Compile(p *cfgir.Program, opts Options) (*isa.Program, error) {
	if opts.IfConvert {
		p.IfConvert()
	}
	// Recomputed here, not taken from the memory tier: the tier may have
	// deleted a function's last load or store.
	touches := p.MemTouches()
	out := &isa.Program{
		Globals:  p.Globals,
		MemWords: p.MemWords,
		Entry:    isa.FuncID(p.FuncByName("main")),
	}
	if out.Entry < 0 {
		return nil, fmt.Errorf("wavec: program has no main function")
	}
	var regs regTable
	for fi, f := range p.Funcs {
		f.SplitCriticalEdges()
		fc := &funcCompiler{prog: p, ir: f, touches: touches, self: fi, regs: &regs}
		isaFunc, err := fc.compile()
		if err != nil {
			return nil, fmt.Errorf("wavec: %s: %w", f.Name, err)
		}
		out.Funcs = append(out.Funcs, *isaFunc)
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("wavec: emitted invalid program: %w", err)
	}
	return out, nil
}

// srcRef names a concrete producer output: an instruction, and for steers
// which side.
type srcRef struct {
	id        isa.InstrID
	falseSide bool
}

// valRef is either a concrete producer output or a net (the incoming value
// of a register at a block boundary).
type valRef struct {
	isNet bool
	src   srcRef
	net   int
}

func srcVal(id isa.InstrID) valRef { return valRef{src: srcRef{id: id}} }

// net collects the consumers of one (block, register) live-in value, plus
// pass-through links to successor nets and the producers that feed it.
type net struct {
	ports   []isa.Dest
	outs    []int
	sources []srcRef

	closed  bool
	closure []isa.Dest
}

// triggerReg is the pseudo-register carrying the per-block activation
// trigger. It is never a real IR register.
const triggerReg cfgir.Reg = -2

type funcCompiler struct {
	prog    *cfgir.Program
	ir      *cfgir.Func
	touches []bool
	self    int

	out     *isa.Function
	preds   [][]int
	liveIn  []cfgir.RegSet
	back    map[cfgir.Edge]bool
	waveOf  []int32
	entryOf []bool // block starts its wave (all in-edges cross)

	// Memory annotation plan (only populated when the function touches
	// memory).
	slotSeq   map[slotKey]int32 // assigned sequence numbers
	slotPred  map[slotKey]int32
	slotSucc  map[slotKey]int32
	firstSlot []slotKey // per block
	lastSlot  []slotKey
	edgeSeq   map[cfgir.Edge]int32 // wave-exit nop sequence numbers

	// netID finds the net of a (block, register) live-in value: a block's
	// nets sit in netID[netBase[block]:netBase[block+1]], a register's at
	// its rank in the block's live-in set and the trigger's last. -1 until
	// netFor makes the net, so nets are still numbered in the order they are
	// first asked for.
	netBase []int
	netID   []int32
	netArr  []*net

	regs *regTable
}

// regTable is what compileBlock knows about each register in the block it
// is compiling: the token source that currently carries its value, and the
// constant it holds when it is a block-local constant (a register may have
// both, once a constant has been materialized). It is one table indexed by
// register for the whole Compile, each slot stamped with the block pass that
// last wrote it; a slot with another stamp is empty, so starting a block is
// one increment and clears nothing.
type regTable struct {
	epoch uint32 // the current block pass; never 0, a fresh slot's stamp
	slots []regSlot
}

type regSlot struct {
	stamp    uint32
	hasVal   bool
	hasConst bool
	val      valRef
	imm      int64
}

// begin starts a block pass over a block of f: every slot becomes empty.
func (t *regTable) begin(f *cfgir.Func) {
	t.epoch++
	if n := f.NumRegs + regBias - len(t.slots); n > 0 {
		t.slots = append(t.slots, make([]regSlot, n)...)
	}
}

// regBias makes triggerReg, the lowest register there is, index 0.
const regBias = -int(triggerReg)

// at returns r's slot for writing, emptied if an earlier pass wrote it last.
func (t *regTable) at(r cfgir.Reg) *regSlot {
	e := &t.slots[int(r)+regBias]
	if e.stamp != t.epoch {
		*e = regSlot{stamp: t.epoch}
	}
	return e
}

// val is the token source carrying r, if r has one.
func (t *regTable) val(r cfgir.Reg) (valRef, bool) {
	if e := &t.slots[int(r)+regBias]; e.stamp == t.epoch && e.hasVal {
		return e.val, true
	}
	return valRef{}, false
}

// constant is the block-local constant r holds, if it holds one.
func (t *regTable) constant(r cfgir.Reg) (int64, bool) {
	if e := &t.slots[int(r)+regBias]; e.stamp == t.epoch && e.hasConst {
		return e.imm, true
	}
	return 0, false
}

// define records that r is now carried by v and no longer a constant.
func (t *regTable) define(r cfgir.Reg, v valRef) {
	*t.at(r) = regSlot{stamp: t.epoch, hasVal: true, val: v}
}

// slotKey identifies a memory slot: instruction index within a block, or
// one of the pseudo-slots.
type slotKey struct {
	block int
	index int // instruction index; -1 = synthetic block nop; -2 = return slot
}

const (
	slotNop = -1
	slotRet = -2
)

func (fc *funcCompiler) compile() (*isa.Function, error) {
	f := fc.ir
	fc.out = &isa.Function{
		Name:          f.Name,
		TouchesMemory: fc.touches[fc.self],
	}
	fc.preds = f.Preds()
	fc.liveIn, _ = f.Liveness()
	fc.back = f.BackEdges()

	fc.assignWaves()
	if fc.out.TouchesMemory {
		fc.planMemory()
	}

	fc.out.Instrs = make([]isa.Instruction, 0, fc.instrBound())

	// Parameter pads: pad 0 is the activation trigger.
	pads := make([]isa.InstrID, 0, len(f.Params)+1)
	for i := 0; i <= len(f.Params); i++ {
		pads = append(pads, fc.emit(isa.Instruction{Op: isa.OpNop, Wave: 0,
			Comment: fmt.Sprintf("pad %d", i)}))
	}
	fc.out.Params = pads

	fc.netBase = make([]int, len(f.Blocks)+1)
	for id := range f.Blocks {
		fc.netBase[id+1] = fc.netBase[id] + fc.liveIn[id].Count() + 1
	}
	fc.netID = make([]int32, fc.netBase[len(f.Blocks)])
	for i := range fc.netID {
		fc.netID[i] = -1
	}
	for _, b := range f.Blocks {
		fc.compileBlock(b, pads)
	}
	fc.resolveNets()
	return fc.out, nil
}

// instrBound is an upper bound on the instructions compile emits, so that
// emit never regrows the function's instruction slice. It is exact but for
// the block-local constants no consumer needs as a token, which are counted
// and not emitted.
func (fc *funcCompiler) instrBound() int {
	f := fc.ir
	n := len(f.Params) + 1 // pads
	for id, b := range f.Blocks {
		n += len(b.Instrs) + 1 // and the block's memory nop or its return
		for i := range b.Instrs {
			if in := &b.Instrs[i]; in.Kind == cfgir.KCall {
				n += 2 + len(in.Args) // landing pad, context, trigger and argument sends
			}
		}
		if b.Term.Kind == cfgir.TBranch { // a steer per routed register and the trigger
			n++
			for w, bits1 := range fc.liveIn[b.Term.Then] {
				n += bits.OnesCount64(bits1 | fc.liveIn[b.Term.Else][w])
			}
		}
		for _, v := range b.Succs() {
			if fc.crossing(id, v) { // a wave advance per value, and the trigger's wave-exit nop
				n += fc.liveIn[v].Count() + 2
			}
		}
	}
	return n
}

func (fc *funcCompiler) emit(in isa.Instruction) isa.InstrID {
	id := isa.InstrID(len(fc.out.Instrs))
	fc.out.Instrs = append(fc.out.Instrs, in)
	return id
}

func (fc *funcCompiler) instr(id isa.InstrID) *isa.Instruction { return &fc.out.Instrs[id] }

// assignWaves partitions blocks (already in reverse postorder) into waves.
func (fc *funcCompiler) assignWaves() {
	f := fc.ir
	headers := f.LoopHeaders()
	fc.waveOf = make([]int32, len(f.Blocks))
	fc.entryOf = make([]bool, len(f.Blocks))
	next := int32(0)
	for id := range f.Blocks {
		if id == f.Entry || headers[id] {
			fc.waveOf[id] = next
			fc.entryOf[id] = true
			next++
			continue
		}
		// Non-header: all predecessors are forward edges, already assigned.
		w := fc.waveOf[fc.preds[id][0]]
		same := true
		for _, p := range fc.preds[id][1:] {
			if fc.waveOf[p] != w {
				same = false
				break
			}
		}
		if same {
			fc.waveOf[id] = w
		} else {
			fc.waveOf[id] = next
			fc.entryOf[id] = true
			next++
		}
	}
	fc.out.NumWaves = next
}

// crossing reports whether edge (u,v) is a wave boundary.
func (fc *funcCompiler) crossing(u, v int) bool {
	return fc.back[cfgir.Edge{From: u, To: v}] || fc.waveOf[u] != fc.waveOf[v] || fc.entryOf[v]
}

// planMemory assigns wave-ordered sequence numbers and predecessor /
// successor links to every memory slot.
func (fc *funcCompiler) planMemory() {
	f := fc.ir
	fc.slotSeq = make(map[slotKey]int32)
	fc.slotPred = make(map[slotKey]int32)
	fc.slotSucc = make(map[slotKey]int32)
	fc.edgeSeq = make(map[cfgir.Edge]int32)
	fc.firstSlot = make([]slotKey, len(f.Blocks))
	fc.lastSlot = make([]slotKey, len(f.Blocks))

	counters := make(map[int32]*int32)
	nextSeq := func(wave int32) int32 {
		c := counters[wave]
		if c == nil {
			c = new(int32)
			counters[wave] = c
		}
		s := *c
		*c++
		return s
	}

	// Pass 1: enumerate slots per block in program order and chain them.
	for id, b := range f.Blocks {
		var slots []slotKey
		for i := range b.Instrs {
			if fc.isMemSlot(&b.Instrs[i]) {
				slots = append(slots, slotKey{block: id, index: i})
			}
		}
		if b.Term.Kind == cfgir.TRet {
			slots = append(slots, slotKey{block: id, index: slotRet})
		}
		if len(slots) == 0 {
			slots = []slotKey{{block: id, index: slotNop}}
		}
		wave := fc.waveOf[id]
		for i, s := range slots {
			fc.slotSeq[s] = nextSeq(wave)
			fc.slotPred[s] = isa.SeqWildcard
			fc.slotSucc[s] = isa.SeqWildcard
			if i > 0 {
				fc.slotPred[s] = fc.slotSeq[slots[i-1]]
				fc.slotSucc[slots[i-1]] = fc.slotSeq[s]
			}
		}
		fc.firstSlot[id] = slots[0]
		fc.lastSlot[id] = slots[len(slots)-1]
	}

	// Pass 2: link across edges and mark wave entries and exits.
	for id, b := range f.Blocks {
		if fc.entryOf[id] {
			fc.slotPred[fc.firstSlot[id]] = isa.SeqStart
		}
		if b.Term.Kind == cfgir.TRet {
			fc.slotSucc[fc.lastSlot[id]] = isa.SeqEnd
			continue
		}
		succs := b.Succs()
		for _, v := range succs {
			if fc.crossing(id, v) {
				// Wave-exit nop: terminates this wave's chain on this edge.
				// Its predecessor (the block's last slot) is statically
				// known, so the link always resolves.
				fc.edgeSeq[cfgir.Edge{From: id, To: v}] = nextSeq(fc.waveOf[id])
				continue
			}
			// Intra-wave edge: after critical-edge splitting at least one
			// side of the link is static.
			if len(succs) == 1 {
				fc.slotSucc[fc.lastSlot[id]] = fc.slotSeq[fc.firstSlot[v]]
			}
			if len(fc.preds[v]) == 1 {
				fc.slotPred[fc.firstSlot[v]] = fc.slotSeq[fc.lastSlot[id]]
			}
		}
		if len(succs) == 1 && fc.crossing(id, succs[0]) {
			// Unique successor through a wave exit: the last slot's
			// successor is the exit nop itself.
			fc.slotSucc[fc.lastSlot[id]] = fc.edgeSeq[cfgir.Edge{From: id, To: succs[0]}]
		}
	}
}

// isMemSlot reports whether an IR instruction occupies a slot in the
// wave-ordered memory chain.
func (fc *funcCompiler) isMemSlot(in *cfgir.Instr) bool {
	switch in.Kind {
	case cfgir.KLoad, cfgir.KStore:
		return true
	case cfgir.KCall:
		return fc.touches[in.Callee]
	}
	return false
}

// annotation builds the MemOrder for a planned slot.
func (fc *funcCompiler) annotation(kind isa.MemKind, s slotKey) isa.MemOrder {
	return isa.MemOrder{
		Kind: kind,
		Seq:  fc.slotSeq[s],
		Pred: fc.slotPred[s],
		Succ: fc.slotSucc[s],
	}
}

// netFor returns (creating on demand) the net of a block live-in value: r
// is the trigger or a member of the block's live-in set.
func (fc *funcCompiler) netFor(block int, r cfgir.Reg) int {
	i := fc.netBase[block+1] - 1
	if r != triggerReg {
		live := fc.liveIn[block]
		i = fc.netBase[block] + bits.OnesCount64(live[r/64]&(1<<(uint(r)%64)-1))
		for _, w := range live[:r/64] {
			i += bits.OnesCount64(w)
		}
	}
	if fc.netID[i] < 0 {
		fc.netID[i] = int32(len(fc.netArr))
		fc.netArr = append(fc.netArr, &net{})
	}
	return int(fc.netID[i])
}

// subscribe routes a value to one instruction input port.
func (fc *funcCompiler) subscribe(v valRef, d isa.Dest) {
	if v.isNet {
		n := fc.netArr[v.net]
		n.ports = append(n.ports, d)
		return
	}
	fc.addDest(v.src, d)
}

func (fc *funcCompiler) addDest(s srcRef, d isa.Dest) {
	in := fc.instr(s.id)
	if s.falseSide {
		in.DestsFalse = append(in.DestsFalse, d)
	} else {
		in.Dests = append(in.Dests, d)
	}
}

// connectEdge feeds a value into a successor block's net.
func (fc *funcCompiler) connectEdge(v valRef, targetNet int) {
	if v.isNet {
		fc.netArr[v.net].outs = append(fc.netArr[v.net].outs, targetNet)
		return
	}
	fc.netArr[targetNet].sources = append(fc.netArr[targetNet].sources, v.src)
}

// resolveNets computes each net's transitive port set and attaches it to
// every producer feeding the net.
func (fc *funcCompiler) resolveNets() {
	var close func(i int) []isa.Dest
	close = func(i int) []isa.Dest {
		n := fc.netArr[i]
		if n.closed {
			return n.closure
		}
		n.closed = true
		n.closure = append(n.closure, n.ports...)
		for _, o := range n.outs {
			n.closure = append(n.closure, close(o)...)
		}
		return n.closure
	}
	for i, n := range fc.netArr {
		ports := close(i)
		for _, s := range n.sources {
			for _, d := range ports {
				fc.addDest(s, d)
			}
		}
	}
}

// liveOnEdge reports whether register r must be routed along edge (u,v).
// The trigger is routed on every edge.
func (fc *funcCompiler) liveOnEdge(v int, r cfgir.Reg) bool {
	if r == triggerReg {
		return true
	}
	return fc.liveIn[v].Has(r)
}

// edgeRegs lists the registers to route out of block u: the union of the
// successors' live-ins, plus the trigger.
func (fc *funcCompiler) edgeRegs(b *cfgir.Block) []cfgir.Reg {
	regs := []cfgir.Reg{triggerReg}
	seen := cfgir.NewRegSet(fc.ir.NumRegs)
	for _, s := range b.Succs() {
		for _, r := range fc.liveIn[s].Members() {
			if !seen.Has(r) {
				seen.Add(r)
				regs = append(regs, r)
			}
		}
	}
	return regs
}

func (fc *funcCompiler) compileBlock(b *cfgir.Block, pads []isa.InstrID) {
	f := fc.ir
	wave := fc.waveOf[b.ID]

	// regs tracks, per register, the token source carrying it and whether
	// it holds a block-local constant; operands drawn from constants become
	// instruction immediates (real WaveScalar instructions encode immediate
	// operands), avoiding a CONST firing per dynamic use. The OpConst
	// instruction is emitted lazily, only if some consumer needs the value
	// as a real token.
	regs := fc.regs
	regs.begin(f)

	if b.ID == f.Entry {
		regs.define(triggerReg, srcVal(pads[0]))
		for i, pr := range f.Params {
			regs.define(pr, srcVal(pads[i+1]))
		}
		// Any other live-in at entry corresponds to a path where the value
		// is defined before use; give it an unfed net so the graph stays
		// well formed.
		for _, r := range fc.liveIn[b.ID].Members() {
			if _, ok := regs.val(r); !ok {
				regs.define(r, valRef{isNet: true, net: fc.netFor(b.ID, r)})
			}
		}
	} else {
		regs.define(triggerReg, valRef{isNet: true, net: fc.netFor(b.ID, triggerReg)})
		for _, r := range fc.liveIn[b.ID].Members() {
			regs.define(r, valRef{isNet: true, net: fc.netFor(b.ID, r)})
		}
	}

	// Synthetic memory nop for memory-silent blocks.
	if fc.out.TouchesMemory && fc.firstSlot[b.ID].index == slotNop {
		nop := fc.emit(isa.Instruction{
			Op:   isa.OpMemNop,
			Mem:  fc.annotation(isa.MemNop, fc.firstSlot[b.ID]),
			Wave: wave,
		})
		fc.subscribe(fc.trigger(), isa.Dest{Instr: nop, Port: 0})
	}

	// wire attaches operand r to port p of instruction id, as an immediate
	// when the value is a block-local constant and the port may be one
	// (some port of the instruction must stay a token port).
	wire := func(id isa.InstrID, p uint8, r cfgir.Reg, allowImm bool) {
		if allowImm {
			if v, ok := regs.constant(r); ok {
				in := fc.instr(id)
				tokenPortsLeft := in.Op.NumInputs() - bits.OnesCount8(in.ImmMask) - 1
				if tokenPortsLeft >= 1 {
					in.ImmMask |= 1 << p
					in.ImmVals[p] = v
					return
				}
			}
		}
		fc.subscribe(fc.materialize(r, wave), isa.Dest{Instr: id, Port: p})
	}

	for i := range b.Instrs {
		in := &b.Instrs[i]
		switch in.Kind {
		case cfgir.KConst:
			// Deferred: becomes an immediate at each use, or a real CONST
			// instruction on first materialization.
			*regs.at(in.Dst) = regSlot{stamp: regs.epoch, hasConst: true, imm: in.Imm}
		case cfgir.KAlu:
			id := fc.emit(isa.Instruction{Op: in.Op, Wave: wave})
			wire(id, 0, in.A, true)
			if in.Op.NumInputs() == 2 {
				wire(id, 1, in.B, true)
			}
			regs.define(in.Dst, srcVal(id))
		case cfgir.KSelect:
			id := fc.emit(isa.Instruction{Op: isa.OpSelect, Wave: wave})
			wire(id, 0, in.A, false) // the predicate token supplies the tag
			wire(id, 1, in.B, true)
			wire(id, 2, in.C, true)
			regs.define(in.Dst, srcVal(id))
		case cfgir.KLoad:
			s := slotKey{block: b.ID, index: i}
			id := fc.emit(isa.Instruction{Op: isa.OpLoad, Mem: fc.annotation(isa.MemLoad, s), Wave: wave})
			wire(id, 0, in.A, false) // the address token supplies the tag
			regs.define(in.Dst, srcVal(id))
		case cfgir.KStore:
			s := slotKey{block: b.ID, index: i}
			id := fc.emit(isa.Instruction{Op: isa.OpStore, Mem: fc.annotation(isa.MemStore, s), Wave: wave})
			wire(id, 0, in.A, false)
			wire(id, 1, in.B, true)
		case cfgir.KCall:
			fc.compileCall(b, i, in, wave)
		}
	}

	// Terminator.
	switch b.Term.Kind {
	case cfgir.TRet:
		var mem isa.MemOrder
		if fc.out.TouchesMemory {
			mem = fc.annotation(isa.MemEnd, slotKey{block: b.ID, index: slotRet})
		}
		ret := fc.emit(isa.Instruction{Op: isa.OpReturn, Mem: mem, Wave: wave})
		fc.subscribe(fc.materialize(b.Term.Val, wave), isa.Dest{Instr: ret, Port: 0})
	case cfgir.TJump:
		v := b.Term.Then
		for _, r := range fc.edgeRegs(b) {
			if fc.liveOnEdge(v, r) {
				fc.route(fc.materialize(r, wave), b.ID, v, r)
			}
		}
	case cfgir.TBranch:
		pv := fc.materialize(b.Term.Cond, wave)
		for _, r := range fc.edgeRegs(b) {
			st := fc.emit(isa.Instruction{Op: isa.OpSteer, Wave: wave})
			fc.subscribe(pv, isa.Dest{Instr: st, Port: 0})
			if v, ok := regs.constant(r); ok {
				si := fc.instr(st)
				si.ImmMask |= 1 << 1
				si.ImmVals[1] = v
			} else {
				fc.subscribe(fc.materialize(r, wave), isa.Dest{Instr: st, Port: 1})
			}
			if fc.liveOnEdge(b.Term.Then, r) {
				fc.route(valRef{src: srcRef{id: st}}, b.ID, b.Term.Then, r)
			}
			if fc.liveOnEdge(b.Term.Else, r) {
				fc.route(valRef{src: srcRef{id: st, falseSide: true}}, b.ID, b.Term.Else, r)
			}
		}
	}
}

// trigger is the token source of the block's activation trigger.
func (fc *funcCompiler) trigger() valRef {
	v, _ := fc.regs.val(triggerReg)
	return v
}

// compileCall emits the call linkage: context allocation, argument sends,
// and the return landing pad.
func (fc *funcCompiler) compileCall(b *cfgir.Block, i int, in *cfgir.Instr, wave int32) {
	callee := isa.FuncID(in.Callee)
	pad := fc.emit(isa.Instruction{Op: isa.OpNop, Wave: wave,
		Comment: fmt.Sprintf("ret from %s", fc.prog.Funcs[in.Callee].Name)})
	var mem isa.MemOrder
	if fc.touches[in.Callee] {
		mem = fc.annotation(isa.MemCall, slotKey{block: b.ID, index: i})
	}
	nc := fc.emit(isa.Instruction{Op: isa.OpNewCtx, Target: callee, TargetPad: int32(pad),
		Mem: mem, Wave: wave})
	fc.subscribe(fc.trigger(), isa.Dest{Instr: nc, Port: 0})

	// Trigger send: pad 0 of the callee receives the context value itself.
	sa0 := fc.emit(isa.Instruction{Op: isa.OpSendArg, Target: callee, TargetPad: 0, Wave: wave})
	fc.addDest(srcRef{id: nc}, isa.Dest{Instr: sa0, Port: 0})
	fc.addDest(srcRef{id: nc}, isa.Dest{Instr: sa0, Port: 1})
	for ai, arg := range in.Args {
		sa := fc.emit(isa.Instruction{Op: isa.OpSendArg, Target: callee, TargetPad: int32(ai + 1), Wave: wave})
		fc.addDest(srcRef{id: nc}, isa.Dest{Instr: sa, Port: 0})
		if v, ok := fc.regs.constant(arg); ok {
			si := fc.instr(sa)
			si.ImmMask |= 1 << 1
			si.ImmVals[1] = v
		} else {
			fc.subscribe(fc.materialize(arg, wave), isa.Dest{Instr: sa, Port: 1})
		}
	}
	fc.regs.define(in.Dst, srcVal(pad))
}

// materialize returns a token source for register r, emitting a CONST
// instruction on demand for block-local constants that some consumer needs
// as a real token.
func (fc *funcCompiler) materialize(r cfgir.Reg, wave int32) valRef {
	if v, ok := fc.regs.val(r); ok {
		return v
	}
	imm, ok := fc.regs.constant(r)
	if !ok {
		panic(fmt.Sprintf("wavec: register r%d has neither value nor constant", r))
	}
	id := fc.emit(isa.Instruction{Op: isa.OpConst, Imm: imm, Wave: wave})
	fc.subscribe(fc.trigger(), isa.Dest{Instr: id, Port: 0})
	v := srcVal(id)
	e := fc.regs.at(r)
	e.hasVal, e.val = true, v
	return v
}

// route carries a value across a CFG edge: through a chain-terminating
// memory nop (trigger only) and a wave advance when the edge crosses a wave
// boundary, then into the target block's net.
func (fc *funcCompiler) route(v valRef, u, w int, r cfgir.Reg) {
	if fc.crossing(u, w) {
		if r == triggerReg && fc.out.TouchesMemory {
			seq := fc.edgeSeq[cfgir.Edge{From: u, To: w}]
			nop := fc.emit(isa.Instruction{
				Op: isa.OpMemNop,
				Mem: isa.MemOrder{
					Kind: isa.MemNop,
					Seq:  seq,
					Pred: fc.slotSeq[fc.lastSlot[u]],
					Succ: isa.SeqEnd,
				},
				Wave:    fc.waveOf[u],
				Comment: "wave exit",
			})
			fc.subscribe(v, isa.Dest{Instr: nop, Port: 0})
			v = srcVal(nop)
		}
		adv := fc.emit(isa.Instruction{Op: isa.OpWaveAdvance, Wave: fc.waveOf[u]})
		fc.subscribe(v, isa.Dest{Instr: adv, Port: 0})
		v = srcVal(adv)
	}
	fc.connectEdge(v, fc.netFor(w, r))
}
