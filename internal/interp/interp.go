// Package interp is the reference tagged-token dataflow interpreter: an
// idealized WaveScalar machine with unbounded processing elements and
// unit-latency communication. It executes isa.Programs exactly as the
// paper's execution model prescribes — tokens, the dataflow firing rule,
// steers, wave advances, context allocation, and wave-ordered memory — but
// with no microarchitectural timing.
//
// It serves three roles: the differential suite's interp-steer,
// interp-select and interp-rolled rows (every compiled binary must reproduce
// the reference engines' checksum and memory image on it), the untimed run
// behind `waverun`, and the profile collector feeding the placement
// model's experiment M1. E1's "ideal dataflow" column is not this
// machine: it is the WaveCache simulator under harness.idealMachine, a
// MachineOptions whose "ideal" regime frees the network and the memory.
package interp

import (
	"errors"
	"fmt"

	"wavescalar/internal/isa"
	"wavescalar/internal/profile"
	"wavescalar/internal/tagtable"
	"wavescalar/internal/waveorder"
)

// Machine executes one program.
type Machine struct {
	prog *isa.Program
	mem  []int64

	engine *waveorder.Engine

	queue tokenQueue

	// opstore holds partially matched input tuples per instruction per tag.
	opstore []map[isa.Tag]*operands // indexed by global instruction index

	instrBase []int // per function, offset into opstore

	ctxMeta map[uint32]ctxInfo
	nextCtx uint32

	// cookies holds reply-routing records for in-flight loads; requests
	// carry slab indices (Cookie is an integer handle, never a boxed
	// value).
	cookies tagtable.Slab[memCookie]

	fuel     int64
	done     bool
	result   int64
	profile  *profile.Profile
	stats    Stats
	maxQueue int
}

// Stats counts interpreter activity.
type Stats struct {
	Fired       uint64 // dynamic instruction count
	Tokens      uint64 // operand deliveries
	Loads       uint64
	Stores      uint64
	WaveAdvance uint64
	Steers      uint64
	Calls       uint64
	MaxContexts int
}

type ctxInfo struct {
	callerFunc isa.FuncID
	callerTag  isa.Tag
	retPad     isa.InstrID
}

type token struct {
	fn   isa.FuncID
	dest isa.Dest
	tag  isa.Tag
	val  int64
	from profile.InstrRef // producer, for traffic profiling
}

// tokenQueue is a FIFO of in-flight tokens.
type tokenQueue struct {
	items []token
	head  int
}

func (q *tokenQueue) push(t token) { q.items = append(q.items, t) }
func (q *tokenQueue) empty() bool  { return q.head >= len(q.items) }
func (q *tokenQueue) pop() token {
	t := q.items[q.head]
	q.head++
	if q.head > 4096 && q.head*2 > len(q.items) {
		q.items = append(q.items[:0], q.items[q.head:]...)
		q.head = 0
	}
	return t
}
func (q *tokenQueue) len() int { return len(q.items) - q.head }

// operands is the per-tag operand tuple of one instruction.
type operands struct {
	vals [3]int64
	have uint8 // bitmask of filled ports
}

// ErrFuel reports that execution exceeded the firing budget.
var ErrFuel = fmt.Errorf("interp: execution exceeded instruction budget")

// New prepares a machine. fuel bounds fired instructions (0 = 1G).
func New(p *isa.Program, fuel int64) *Machine {
	if fuel == 0 {
		fuel = 1_000_000_000
	}
	m := &Machine{
		prog:    p,
		mem:     p.InitialMemory(),
		ctxMeta: make(map[uint32]ctxInfo),
		nextCtx: 1,
		fuel:    fuel,
	}
	total := 0
	m.instrBase = make([]int, len(p.Funcs))
	for i := range p.Funcs {
		m.instrBase[i] = total
		total += len(p.Funcs[i].Instrs)
	}
	m.opstore = make([]map[isa.Tag]*operands, total)
	m.engine = waveorder.NewEngine(0, m.issueMem)
	return m
}

// CollectProfile attaches a profile (line granularity in words) to be
// filled during Run.
func (m *Machine) CollectProfile(lineWords int64) *profile.Profile {
	m.profile = profile.New(lineWords)
	return m.profile
}

// Memory exposes the live memory image.
func (m *Machine) Memory() []int64 { return m.mem }

// Stats returns execution counters.
func (m *Machine) Stats() Stats { return m.stats }

// MemStats returns the wave-ordered memory engine's counters.
func (m *Machine) MemStats() waveorder.Stats { return m.engine.Stats() }

// Run boots the entry function in context 0 and executes to completion.
func (m *Machine) Run() (int64, error) {
	entry := m.prog.Entry
	m.ctxMeta[0] = ctxInfo{callerFunc: isa.NoFunc, retPad: isa.NoInstr}
	pad0 := m.prog.Funcs[entry].Params[0]
	m.queue.push(token{fn: entry, dest: isa.Dest{Instr: pad0, Port: 0}, tag: isa.Tag{Ctx: 0, Wave: 0}})

	for !m.queue.empty() {
		if m.queue.len() > m.maxQueue {
			m.maxQueue = m.queue.len()
		}
		t := m.queue.pop()
		if err := m.deliver(t); err != nil {
			if errors.Is(err, ErrFuel) {
				// A runaway (or deadlocked-in-a-cycle) program: report the
				// stuck state like the simulators' watchdog does.
				return 0, fmt.Errorf("%w after %d fired instructions, %d tokens in flight\n%s",
					ErrFuel, m.stats.Fired, m.queue.len(), m.engine.DebugState())
			}
			return 0, err
		}
	}
	if !m.done {
		return 0, fmt.Errorf("interp: deadlock — no tokens in flight but program has not returned\n%s", m.engine.DebugState())
	}
	if m.prog.Funcs[entry].TouchesMemory && !m.engine.Done() {
		return 0, fmt.Errorf("interp: program returned but memory sequence incomplete (%d pending)\n%s",
			m.engine.Pending(), m.engine.DebugState())
	}
	return m.result, nil
}

// MaxQueue reports the high-water mark of in-flight tokens (a measure of
// exposed parallelism).
func (m *Machine) MaxQueue() int { return m.maxQueue }

func (m *Machine) globalIndex(fn isa.FuncID, id isa.InstrID) int {
	return m.instrBase[fn] + int(id)
}

// deliver lands one token on an input port and fires the instruction if the
// tuple for that tag is complete.
func (m *Machine) deliver(t token) error {
	m.stats.Tokens++
	if m.profile != nil {
		m.profile.AddTraffic(t.from, profile.InstrRef{Func: t.fn, Instr: t.dest.Instr})
	}
	gi := m.globalIndex(t.fn, t.dest.Instr)
	in := &m.prog.Funcs[t.fn].Instrs[t.dest.Instr]
	need := in.Op.NumInputs()

	store := m.opstore[gi]
	if store == nil {
		store = make(map[isa.Tag]*operands)
		m.opstore[gi] = store
	}
	ops := store[t.tag]
	if ops == nil {
		ops = &operands{have: in.ImmMask, vals: in.ImmVals}
		store[t.tag] = ops
	}
	bit := uint8(1) << t.dest.Port
	if ops.have&bit != 0 {
		return fmt.Errorf("interp: token collision at %s/i%d port %d tag %v",
			m.prog.Funcs[t.fn].Name, t.dest.Instr, t.dest.Port, t.tag)
	}
	ops.have |= bit
	ops.vals[t.dest.Port] = t.val

	if ops.have != (uint8(1)<<need)-1 {
		return nil
	}
	delete(store, t.tag)
	return m.fire(t.fn, t.dest.Instr, in, t.tag, ops.vals)
}

// send emits an output token to every destination in the list.
func (m *Machine) send(fn isa.FuncID, from isa.InstrID, dests []isa.Dest, tag isa.Tag, val int64) {
	src := profile.InstrRef{Func: fn, Instr: from}
	for _, d := range dests {
		m.queue.push(token{fn: fn, dest: d, tag: tag, val: val, from: src})
	}
}

func (m *Machine) fire(fn isa.FuncID, id isa.InstrID, in *isa.Instruction, tag isa.Tag, vals [3]int64) error {
	m.stats.Fired++
	m.fuel--
	if m.fuel < 0 {
		return ErrFuel
	}
	if m.profile != nil {
		m.profile.AddFire(profile.InstrRef{Func: fn, Instr: id})
	}

	dests, destsFalse := m.prog.Funcs[fn].Out(in)
	switch {
	case in.Op == isa.OpNop:
		m.send(fn, id, dests, tag, vals[0])
	case in.Op == isa.OpConst:
		m.send(fn, id, dests, tag, in.Imm)
	case isa.IsALU(in.Op):
		m.send(fn, id, dests, tag, isa.EvalALU(in.Op, vals[0], vals[1]))
	case in.Op == isa.OpSteer:
		m.stats.Steers++
		if vals[0] != 0 {
			m.send(fn, id, dests, tag, vals[1])
		} else {
			m.send(fn, id, destsFalse, tag, vals[1])
		}
	case in.Op == isa.OpSelect:
		v := vals[2]
		if vals[0] != 0 {
			v = vals[1]
		}
		m.send(fn, id, dests, tag, v)
	case in.Op == isa.OpWaveAdvance:
		m.stats.WaveAdvance++
		m.send(fn, id, dests, tag.Advance(), vals[0])
	case in.Op == isa.OpLoad:
		m.stats.Loads++
		if m.profile != nil {
			m.profile.AddMemAccess(profile.InstrRef{Func: fn, Instr: id}, vals[0])
		}
		return m.submitMem(fn, id, in, tag, vals[0], 0)
	case in.Op == isa.OpStore:
		m.stats.Stores++
		if m.profile != nil {
			m.profile.AddMemAccess(profile.InstrRef{Func: fn, Instr: id}, vals[0])
		}
		if err := m.submitMem(fn, id, in, tag, vals[0], vals[1]); err != nil {
			return err
		}
		// The stored value forwards immediately; ordering is the store
		// buffer's concern, not the dataflow graph's.
		m.send(fn, id, dests, tag, vals[1])
	case in.Op == isa.OpMemNop:
		// Pure ordering message; the trigger forwards immediately.
		if err := m.submitMem(fn, id, in, tag, 0, 0); err != nil {
			return err
		}
		m.send(fn, id, dests, tag, vals[0])
	case in.Op == isa.OpNewCtx:
		m.stats.Calls++
		ctx := m.nextCtx
		m.nextCtx++
		m.ctxMeta[ctx] = ctxInfo{callerFunc: fn, callerTag: tag, retPad: isa.InstrID(in.TargetPad)}
		if len(m.ctxMeta) > m.stats.MaxContexts {
			m.stats.MaxContexts = len(m.ctxMeta)
		}
		if in.Mem.Kind == isa.MemCall {
			if err := m.engine.Submit(&waveorder.Request{
				Ctx: tag.Ctx, Wave: tag.Wave,
				Kind: isa.MemCall, Seq: in.Mem.Seq, Pred: in.Mem.Pred, Succ: in.Mem.Succ,
				ChildCtx: ctx,
			}); err != nil {
				return err
			}
		}
		m.send(fn, id, dests, tag, int64(ctx))
	case in.Op == isa.OpSendArg:
		callee := in.Target
		ctx := uint32(vals[0])
		pad := m.prog.Funcs[callee].Params[in.TargetPad]
		m.queue.push(token{
			fn:   callee,
			dest: isa.Dest{Instr: pad, Port: 0},
			tag:  isa.Tag{Ctx: ctx, Wave: 0},
			val:  vals[1],
			from: profile.InstrRef{Func: fn, Instr: id},
		})
	case in.Op == isa.OpReturn:
		meta, ok := m.ctxMeta[tag.Ctx]
		if !ok {
			return fmt.Errorf("interp: return in unknown context %d", tag.Ctx)
		}
		delete(m.ctxMeta, tag.Ctx)
		if in.Mem.Kind == isa.MemEnd {
			if err := m.engine.Submit(&waveorder.Request{
				Ctx: tag.Ctx, Wave: tag.Wave,
				Kind: isa.MemEnd, Seq: in.Mem.Seq, Pred: in.Mem.Pred, Succ: in.Mem.Succ,
			}); err != nil {
				return err
			}
		}
		if meta.retPad == isa.NoInstr {
			m.done = true
			m.result = vals[0]
			return nil
		}
		m.queue.push(token{
			fn:   meta.callerFunc,
			dest: isa.Dest{Instr: meta.retPad, Port: 0},
			tag:  meta.callerTag,
			val:  vals[0],
			from: profile.InstrRef{Func: fn, Instr: id},
		})
	default:
		return fmt.Errorf("interp: cannot execute opcode %s", in.Op)
	}
	return nil
}

// memCookie identifies the requesting instruction so load replies can be
// routed when the ordering engine issues them.
type memCookie struct {
	fn  isa.FuncID
	id  isa.InstrID
	tag isa.Tag
}

func (m *Machine) submitMem(fn isa.FuncID, id isa.InstrID, in *isa.Instruction, tag isa.Tag, addr, val int64) error {
	cookie := int64(-1)
	if in.Mem.Kind == isa.MemLoad {
		idx := m.cookies.Alloc()
		*m.cookies.At(idx) = memCookie{fn: fn, id: id, tag: tag}
		cookie = int64(idx)
	}
	return m.engine.Submit(&waveorder.Request{
		Ctx: tag.Ctx, Wave: tag.Wave,
		Kind: in.Mem.Kind, Seq: in.Mem.Seq, Pred: in.Mem.Pred, Succ: in.Mem.Succ,
		Addr: addr, Value: val,
		Cookie: cookie,
	})
}

// issueMem performs memory accesses as the ordering engine releases them in
// program order.
func (m *Machine) issueMem(r *waveorder.Request) {
	switch r.Kind {
	case isa.MemLoad:
		idx := int32(r.Cookie)
		ck := *m.cookies.At(idx)
		m.cookies.Release(idx)
		var v int64
		if r.Addr >= 0 && r.Addr < int64(len(m.mem)) {
			v = m.mem[r.Addr]
		}
		f := &m.prog.Funcs[ck.fn]
		dests, _ := f.Out(&f.Instrs[ck.id])
		m.send(ck.fn, ck.id, dests, ck.tag, v)
	case isa.MemStore:
		if r.Addr >= 0 && r.Addr < int64(len(m.mem)) {
			m.mem[r.Addr] = r.Value
		}
	}
}
