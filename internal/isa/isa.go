// Package isa defines the WaveScalar instruction set architecture: the
// dataflow instruction repertoire, token tags, wave-ordered memory
// annotations, and the Program/Function/Instruction containers produced by
// the compiler and consumed by every execution engine in this repository.
//
// A WaveScalar binary is a program's dataflow graph. Each Instruction names
// the instructions that consume its outputs; there is no program counter.
// Values travel as tagged tokens, and an instruction fires when all of its
// input ports hold a token with the same tag (the dataflow firing rule).
package isa

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Opcode enumerates the WaveScalar instruction repertoire.
type Opcode uint8

const (
	// OpNop forwards its single input to its destinations unchanged. It is
	// used for landing pads (parameters, return values) and graph plumbing.
	OpNop Opcode = iota

	// OpConst emits its immediate whenever a trigger token arrives on input
	// port 0. The output token carries the trigger's tag, which is how
	// constants acquire the correct dynamic wave number.
	OpConst

	// Integer arithmetic. All values are int64. Division and remainder by
	// zero produce 0, matching the reference evaluator (a simulator must
	// not fault on speculative garbage).
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpNeg
	OpNot

	// Comparisons produce 0 or 1.
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	// OpSteer is the φ⁻¹ control instruction. Port 0 is the predicate,
	// port 1 the value. If the predicate is nonzero the value is forwarded
	// to the primary destination list, otherwise to the false-path list.
	// Nothing is sent on the untaken side, which is how control flow
	// prunes the dataflow graph.
	OpSteer

	// OpSelect is the φ instruction. Port 0 is the predicate, port 1 the
	// true value, port 2 the false value; the chosen value is forwarded.
	// Unlike OpSteer it waits for both data inputs.
	OpSelect

	// OpWaveAdvance increments the wave number of the token on port 0 and
	// forwards it. The compiler places one on every value crossing a wave
	// boundary (loop back-edges and loop entries), so each dynamic wave of
	// a context is numbered consecutively.
	OpWaveAdvance

	// OpLoad reads memory. Port 0 is the address. It carries a wave-ordered
	// memory annotation and its request is held by the store buffer until
	// program order allows it to issue; the loaded value is then forwarded.
	OpLoad

	// OpStore writes memory. Port 0 is the address, port 1 the value. It is
	// wave-ordered like OpLoad. The stored value is forwarded to any
	// destinations (usually none).
	OpStore

	// OpMemNop participates in wave-ordered memory without touching memory.
	// The compiler inserts one in every memory-silent basic block and on
	// split critical edges so that every executed path announces a complete
	// ordering chain to the store buffer. Port 0 is a trigger value, which
	// is forwarded unchanged once the nop issues.
	OpMemNop

	// OpNewCtx allocates a fresh context identifier for a function call and
	// emits it as a value (port 0 is a trigger). Target names the callee
	// and TargetPad the caller's return landing pad; the execution engine
	// records the (caller tag, landing pad) linkage against the new context
	// so OpReturn can route the result home. In hardware this linkage is a
	// token sent alongside the arguments (an indirect send); the engines
	// here keep it in a context table, which is observationally identical.
	// If the callee touches memory the instruction also carries a memory
	// annotation: it occupies the call's slot in the caller's ordering
	// chain and tells the store buffer to splice the callee's entire
	// memory sequence in at that slot.
	OpNewCtx

	// OpSendArg transmits an argument to a callee. Port 0 is the context
	// value produced by OpNewCtx, port 1 the argument. The token is
	// delivered to parameter pad TargetPad of function Target, tagged
	// (ctx, 0). Pad 0 of every function is an implicit activation trigger
	// (its value is ignored), so even zero-argument callees receive a
	// token that starts their entry wave.
	OpSendArg

	// OpReturn terminates a function activation. Port 0 is the return
	// value, which is sent to the caller's landing pad with the caller's
	// tag (both found in the context table). If the function touches
	// memory, OpReturn carries a memory annotation marking the end of the
	// context's memory sequence.
	OpReturn

	opcodeCount
)

var opcodeNames = [...]string{
	OpNop:         "nop",
	OpConst:       "const",
	OpAdd:         "add",
	OpSub:         "sub",
	OpMul:         "mul",
	OpDiv:         "div",
	OpRem:         "rem",
	OpAnd:         "and",
	OpOr:          "or",
	OpXor:         "xor",
	OpShl:         "shl",
	OpShr:         "shr",
	OpNeg:         "neg",
	OpNot:         "not",
	OpEq:          "eq",
	OpNe:          "ne",
	OpLt:          "lt",
	OpLe:          "le",
	OpGt:          "gt",
	OpGe:          "ge",
	OpSteer:       "steer",
	OpSelect:      "select",
	OpWaveAdvance: "wave-advance",
	OpLoad:        "load",
	OpStore:       "store",
	OpMemNop:      "mem-nop",
	OpNewCtx:      "new-ctx",
	OpSendArg:     "send-arg",
	OpReturn:      "return",
}

func (op Opcode) String() string {
	if int(op) < len(opcodeNames) && opcodeNames[op] != "" {
		return opcodeNames[op]
	}
	return fmt.Sprintf("opcode(%d)", uint8(op))
}

// NumInputs reports how many input ports the opcode consumes.
func (op Opcode) NumInputs() int {
	switch op {
	case OpConst, OpNop, OpNeg, OpNot, OpWaveAdvance, OpLoad, OpMemNop, OpNewCtx, OpReturn:
		return 1
	case OpSelect:
		return 3
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpEq, OpNe, OpLt, OpLe, OpGt, OpGe,
		OpSteer, OpStore, OpSendArg:
		return 2
	default:
		return 0
	}
}

// IsMemCapable reports whether the opcode may carry a wave-ordered memory
// annotation.
func (op Opcode) IsMemCapable() bool {
	switch op {
	case OpLoad, OpStore, OpMemNop, OpNewCtx, OpReturn:
		return true
	}
	return false
}

// Tag identifies a dynamic instance of a value. Two tokens match (and may
// fire an instruction together) only when their tags are equal.
//
// Ctx distinguishes function activations: every dynamic call allocates a
// fresh context, so recursive and concurrent activations cannot alias.
// Wave distinguishes loop iterations within an activation: WAVE-ADVANCE
// increments it, so a context's dynamic waves are numbered 0, 1, 2, ...
// in thread execution order.
type Tag struct {
	Ctx  uint32
	Wave uint32
}

func (t Tag) String() string { return fmt.Sprintf("<%d.%d>", t.Ctx, t.Wave) }

// Advance returns the tag with its wave number incremented, as produced by
// OpWaveAdvance.
func (t Tag) Advance() Tag { return Tag{Ctx: t.Ctx, Wave: t.Wave + 1} }

// Sequence-number sentinels for wave-ordered memory annotations.
const (
	// SeqWildcard marks an unknown predecessor or successor ('?' in the
	// paper): the adjacent operation in program order depends on the branch
	// path taken.
	SeqWildcard int32 = -1
	// SeqStart marks the beginning of a wave's ordering chain: an operation
	// whose Pred is SeqStart is the first memory operation of its wave.
	SeqStart int32 = -2
	// SeqEnd marks the end of a wave's ordering chain: an operation whose
	// Succ is SeqEnd is the last memory operation of its wave on the taken
	// path, and its issue completes the wave.
	SeqEnd int32 = -3
)

// MemKind classifies a wave-ordered memory request.
type MemKind uint8

const (
	MemNone  MemKind = iota // no memory semantics
	MemLoad                 // read memory
	MemStore                // write memory
	MemNop                  // ordering chain only
	MemCall                 // splice a child context's sequence in here
	MemEnd                  // terminate the context's memory sequence
)

func (k MemKind) String() string {
	switch k {
	case MemNone:
		return "none"
	case MemLoad:
		return "load"
	case MemStore:
		return "store"
	case MemNop:
		return "nop"
	case MemCall:
		return "call"
	case MemEnd:
		return "end"
	}
	return fmt.Sprintf("memkind(%d)", uint8(k))
}

// MemOrder is the wave-ordered memory annotation the compiler attaches to a
// memory-capable instruction: its own sequence number within its static
// wave, and the sequence numbers of its predecessor and successor in
// program order (SeqWildcard where the neighbour depends on the path).
type MemOrder struct {
	Kind MemKind
	Seq  int32
	Pred int32
	Succ int32
}

// WaveStart is the chain position before a wave's first memory operation:
// the operation that links to it is the one whose Pred is SeqStart.
var WaveStart = MemOrder{Seq: SeqStart, Succ: SeqWildcard}

// Links is the wave-ordering rule, the one place it is spelled: b may
// follow a in its wave's chain when a's Succ names b or b's Pred names a.
// The store buffer issues whichever waiting operation links to the last
// one it issued (WaveStart at a wave's start), and Validate holds every
// binary's waves to the same rule.
func (a MemOrder) Links(b MemOrder) bool {
	return (a.Succ >= 0 && b.Seq == a.Succ) || b.Pred == a.Seq
}

// SeqString spells a sequence number as the paper does: the sentinels as
// '?', '^' and '$', any other number in decimal.
func SeqString(s int32) string {
	switch s {
	case SeqWildcard:
		return "?"
	case SeqStart:
		return "^"
	case SeqEnd:
		return "$"
	}
	return fmt.Sprintf("%d", s)
}

func (m MemOrder) String() string {
	if m.Kind == MemNone {
		return ""
	}
	return fmt.Sprintf("{%s %s.%s.%s}", m.Kind, SeqString(m.Pred), SeqString(m.Seq), SeqString(m.Succ))
}

// InstrID names an instruction within its Function.
type InstrID int32

// NoInstr is the zero-ish sentinel for "no instruction".
const NoInstr InstrID = -1

// Dest routes an output value to input port Port of instruction Instr in
// the same function.
type Dest struct {
	Instr InstrID
	Port  uint8
}

// Instruction is a single node of the dataflow graph: a fixed-size record
// holding no pointer, so a function's instruction array is memory the
// garbage collector never scans. Its destinations are a run of its
// Function's Dests, read through Function.Out.
type Instruction struct {
	Imm int64 // OpConst immediate

	// ImmVals holds the static immediates of the ports ImmMask marks.
	ImmVals [3]int64

	// Mem is the wave-ordered memory annotation; Mem.Kind is MemNone for
	// non-memory instructions.
	Mem MemOrder

	// Target names the callee function (OpSendArg, OpNewCtx). TargetPad is
	// the callee parameter pad index for OpSendArg, and the caller's
	// return landing pad for OpNewCtx.
	Target    FuncID
	TargetPad int32

	// Wave is the static wave (acyclic CFG region) this instruction was
	// compiled into; informational and used by validation and placement.
	Wave int32

	// DestLo is where the instruction's run starts in Function.Dests:
	// NDests primary destinations (for OpSteer, the true path), then
	// NFalse false-path destinations (OpSteer only).
	DestLo int32

	Op Opcode

	// ImmMask marks input ports whose operand is a static immediate
	// encoded in the instruction (bit p = port p); such ports never await
	// tokens. At least one port must remain a token port — the arriving
	// token supplies the tag.
	ImmMask uint8

	NDests uint16
	NFalse uint16
}

// MaxFanout is the most destinations one side of an instruction can name:
// the range of its count fields.
const MaxFanout = math.MaxUint16

// FuncID names a function within a Program.
type FuncID int32

// NoFunc is the sentinel for "no function".
const NoFunc FuncID = -1

// Function is a compiled dataflow graph.
type Function struct {
	Name   string
	Instrs []Instruction

	// Dests holds every instruction's destinations in instruction order,
	// each instruction's run at its DestLo: the primary list, then a
	// steer's false-path list.
	Dests []Dest

	// Comments holds the compiler's notes the disassembler prints, sorted
	// by instruction; most instructions have none.
	Comments []Note

	// Params[i] is the landing-pad instruction that receives argument i.
	// Params[0] is the implicit activation trigger; source-level arguments
	// occupy Params[1:].
	Params []InstrID

	// NumWaves is the number of static waves the body was partitioned into.
	NumWaves int32

	// TouchesMemory reports whether this function (transitively) performs
	// any memory operation; callers only allocate a memory-call slot for
	// callees that do.
	TouchesMemory bool
}

// Note is one instruction's compiler note.
type Note struct {
	Instr InstrID
	Text  string
}

// Out returns the destination lists of in, an instruction of f: the
// primary list (a steer's true path) and a steer's false-path list.
func (f *Function) Out(in *Instruction) (dests, destsFalse []Dest) {
	lo := int(in.DestLo)
	mid := lo + int(in.NDests)
	hi := mid + int(in.NFalse)
	return f.Dests[lo:mid:mid], f.Dests[mid:hi:hi]
}

// Add appends in to f with its destination lists (destsFalse only for a
// steer) and, when note is not empty, its compiler note, and returns its
// id. Each list must hold at most MaxFanout destinations.
func (f *Function) Add(in Instruction, dests, destsFalse []Dest, note string) InstrID {
	if len(dests) > MaxFanout || len(destsFalse) > MaxFanout {
		panic("isa: a destination list exceeds MaxFanout")
	}
	id := InstrID(len(f.Instrs))
	in.DestLo = int32(len(f.Dests))
	in.NDests, in.NFalse = uint16(len(dests)), uint16(len(destsFalse))
	f.Dests = append(append(f.Dests, dests...), destsFalse...)
	f.Instrs = append(f.Instrs, in)
	if note != "" {
		f.Comments = append(f.Comments, Note{Instr: id, Text: note})
	}
	return id
}

// Comment returns the compiler note of instruction id, or "".
func (f *Function) Comment(id InstrID) string {
	i, ok := slices.BinarySearchFunc(f.Comments, id, func(n Note, id InstrID) int { return cmp.Compare(n.Instr, id) })
	if !ok {
		return ""
	}
	return f.Comments[i].Text
}

// Program is a complete WaveScalar binary.
type Program struct {
	Funcs []Function

	// Entry is the function started at program boot (conventionally "main").
	Entry FuncID

	// Globals describes the static data segment: each global array occupies
	// [Addr, Addr+Size) words of the flat address space.
	Globals []Global

	// MemWords is the total size of the address space in 64-bit words, at
	// most MaxMemWords.
	MemWords int64
}

// MaxMemWords bounds the address space a program may declare: 16M words
// (128 MiB), far above any workload's. Every engine allocates the whole
// space per run, so an unbounded size in a hand-written binary would be an
// unbounded allocation.
const MaxMemWords = 1 << 24

// Global is one statically allocated array (or scalar, Size==1).
type Global struct {
	Name string
	Addr int64
	Size int64
	// Init holds initial values (len <= Size); the remainder is zero.
	Init []int64
}

// FuncByName returns the function with the given name, or nil.
func (p *Program) FuncByName(name string) *Function {
	for i := range p.Funcs {
		if p.Funcs[i].Name == name {
			return &p.Funcs[i]
		}
	}
	return nil
}

// NumInstrs returns the total static instruction count of the program.
func (p *Program) NumInstrs() int {
	n := 0
	for i := range p.Funcs {
		n += len(p.Funcs[i].Instrs)
	}
	return n
}

// InitialMemory allocates and initializes the program's data segment.
func (p *Program) InitialMemory() []int64 {
	return p.FillMemory(nil)
}

// FillMemory (re)initializes dst to the program's initial data segment,
// reusing dst's backing array when it is large enough — the allocation-free
// path a reusable simulator arena takes between runs. The returned slice has
// exactly MemWords words.
func (p *Program) FillMemory(dst []int64) []int64 {
	return FillSegment(dst, p.MemWords, p.Globals)
}

// FillSegment (re)initializes dst to a words-long data segment holding
// globals, reusing dst's backing array when it is large enough. Every
// program form (CFG IR, linear code, dataflow binary) builds its initial
// memory here.
func FillSegment(dst []int64, words int64, globals []Global) []int64 {
	if int64(cap(dst)) >= words {
		dst = dst[:words]
		clear(dst)
	} else {
		dst = make([]int64, words)
	}
	for _, g := range globals {
		copy(dst[g.Addr:g.Addr+g.Size], g.Init)
	}
	return dst
}
