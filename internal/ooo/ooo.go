// Package ooo models an aggressive out-of-order superscalar processor — the
// baseline the MICRO 2003 WaveScalar evaluation compares the WaveCache
// against. It is a trace-driven timing model: the linear emulator supplies
// the dynamic instruction stream (so functional correctness is already
// settled), and this package answers how many cycles that stream takes on a
// machine with:
//
//   - a pipelined front end (fetch width, decode depth, fetch redirect on
//     taken control flow),
//   - gshare branch prediction with a fixed mispredict penalty,
//   - register renaming (implicit: per-frame last-writer tracking),
//   - a unified scheduling window / reorder buffer with issue and commit
//     width limits,
//   - a load/store queue with store-to-load forwarding (a load waits only
//     on older in-flight stores to its own address),
//   - the same cache hierarchy model as the WaveCache simulator
//     (single L1).
package ooo

import (
	"fmt"
	"slices"

	"wavescalar/internal/cfgir"
	"wavescalar/internal/isa"
	"wavescalar/internal/linear"
	"wavescalar/internal/mem"
)

// Config parameterizes the core.
type Config struct {
	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	ROBSize     int
	LSQSize     int

	DecodeDepth       int64 // front-end stages between fetch and dispatch
	MispredictPenalty int64

	GShareBits uint // log2 of predictor table size

	IntLatency int64
	MulLatency int64
	DivLatency int64

	// Functional-unit ports per cycle.
	ALUPorts    int
	MulDivPorts int
	LoadPorts   int
	StorePorts  int

	Mem mem.SystemConfig

	// Fuel bounds dynamic instructions (0 = 500M).
	Fuel int64
}

// DefaultConfig is the aggressive superscalar of the evaluation: 8-wide,
// 15-stage front end, 256-entry window, gshare prediction.
func DefaultConfig() Config {
	return Config{
		FetchWidth:        8,
		IssueWidth:        8,
		CommitWidth:       8,
		ROBSize:           256,
		LSQSize:           64,
		DecodeDepth:       15,
		MispredictPenalty: 15,
		GShareBits:        14,
		IntLatency:        1,
		MulLatency:        3,
		DivLatency:        20,
		ALUPorts:          4,
		MulDivPorts:       1,
		LoadPorts:         2,
		StorePorts:        1,
		Mem:               mem.DefaultSystemConfig(1),
	}
}

// Result reports a run.
type Result struct {
	Value  int64 // program result
	Instrs uint64
	Cycles int64
	IPC    float64

	Branches    uint64
	Mispredicts uint64
	Loads       uint64
	Stores      uint64
	Forwards    uint64
	Mem         mem.Stats
}

// capSchedule grants at most width events per cycle. Full cycles carry
// path-compressed skip pointers to the next candidate cycle, so a reserve
// behind an arbitrarily long full region costs amortized near-constant
// time. The cycle -> cell mapping is an open-addressed, linear-probed
// table (same idiom as internal/tagtable): reserve dominates the
// superscalar model's profile, and the Go map's hash-and-bucket machinery
// was most of its cost. Cells are never deleted — the set of touched
// cycles is exactly what the old map retained too.
type capSchedule struct {
	width int32
	keys  []int64   // cycle+1 per slot; 0 = empty
	cells []capCell // parallel to keys
	n     int       // live slots
	chain []int64   // reusable path-compression scratch (slot indices)
}

// capCell is one cycle's schedule state. skip == 0 means "no skip
// pointer" (a real skip target is always > its source cycle >= 0, so 0
// is never a valid target).
type capCell struct {
	count int32
	skip  int64
}

func newCapSchedule(width int) *capSchedule {
	const initSlots = 1 << 10
	return &capSchedule{
		width: int32(width),
		keys:  make([]int64, initSlots),
		cells: make([]capCell, initSlots),
	}
}

func cycleHash(k int64) uint64 {
	h := uint64(k) * 0x9E3779B97F4A7C15
	return h ^ h>>29
}

// slot returns the index holding cycle t, or the empty slot where it
// would be inserted.
func (c *capSchedule) slot(t int64) int {
	mask := uint64(len(c.keys) - 1)
	i := cycleHash(t+1) & mask
	for {
		k := c.keys[i]
		if k == 0 || k == t+1 {
			return int(i)
		}
		i = (i + 1) & mask
	}
}

func (c *capSchedule) grow() {
	oldKeys, oldCells := c.keys, c.cells
	c.keys = make([]int64, 2*len(oldKeys))
	c.cells = make([]capCell, len(c.keys))
	mask := uint64(len(c.keys) - 1)
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		j := cycleHash(k) & mask
		for c.keys[j] != 0 {
			j = (j + 1) & mask
		}
		c.keys[j] = k
		c.cells[j] = oldCells[i]
	}
}

// reserve returns the first cycle >= t with a free slot and takes it,
// compressing skip pointers along the probed chain.
func (c *capSchedule) reserve(t int64) int64 {
	chain := c.chain[:0]
	var si int
	for {
		si = c.slot(t)
		if c.keys[si] == 0 || c.cells[si].count < c.width {
			break
		}
		chain = append(chain, int64(si))
		if nx := c.cells[si].skip; nx != 0 {
			t = nx
		} else {
			t++
		}
	}
	for _, s := range chain {
		c.cells[s].skip = t
	}
	c.chain = chain
	if c.keys[si] == 0 {
		c.keys[si] = t + 1
		c.cells[si] = capCell{count: 1}
		c.n++
		if c.n*4 >= len(c.keys)*3 {
			c.grow()
		}
	} else {
		c.cells[si].count++
	}
	return t
}

// monoSchedule is the capSchedule specialization for monotone
// non-decreasing request streams — fetch (requests at fetchMin, which
// only moves forward) and commit (requests at the retirement frontier).
// Under a monotone stream every cycle below the last grant is either full
// or unreachable, so the frontier cycle and its count are the entire
// state; behaviour is observably identical to capSchedule.
type monoSchedule struct {
	width int32
	count int32
	cur   int64
}

func newMonoSchedule(width int) *monoSchedule {
	return &monoSchedule{width: int32(width), cur: -1}
}

func (m *monoSchedule) reserve(t int64) int64 {
	if t > m.cur {
		m.cur, m.count = t, 0
	}
	if m.count >= m.width {
		m.cur++
		m.count = 0
	}
	m.count++
	return m.cur
}

// gshare is a global-history branch predictor with 2-bit counters.
type gshare struct {
	table []uint8
	hist  uint64
	mask  uint64
}

func newGshare(bits uint) *gshare {
	return &gshare{table: make([]uint8, 1<<bits), mask: (1 << bits) - 1}
}

func (g *gshare) index(pc uint64) uint64 { return (pc ^ g.hist) & g.mask }

func (g *gshare) predict(pc uint64) bool { return g.table[g.index(pc)] >= 2 }

func (g *gshare) update(pc uint64, taken bool) {
	i := g.index(pc)
	if taken {
		if g.table[i] < 3 {
			g.table[i]++
		}
	} else if g.table[i] > 0 {
		g.table[i]--
	}
	g.hist = g.hist<<1 | b2u(taken)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// storeEntry is an in-flight store in the LSQ.
type storeEntry struct {
	dataReady int64
	addr      int64
}

// callFrame remembers where a call's return value must land: the caller's
// registers start at base in core.regs.
type callFrame struct {
	base int
	rd   cfgir.Reg
}

// core is the timing state threaded through the trace.
type core struct {
	cfg       Config
	prog      *linear.Program
	fetch     *monoSchedule
	issue     *capSchedule
	commit    *monoSchedule
	aluPort   *capSchedule
	mulPort   *capSchedule
	loadPort  *capSchedule
	storePort *capSchedule
	memsys    *mem.System
	bp        *gshare

	fetchMin   int64
	lastCommit int64
	robCommits []int64
	robHead    int

	// Renaming: regs is a stack of activations, innermost last, each
	// holding the cycle its registers' last writes complete (0 for a
	// register never written); frame is the innermost one, starting at
	// base. A call pushes the callee's, its return pops it, and the slab
	// is reused, so a call allocates nothing.
	regs      []int64
	frame     []int64
	base      int
	callStack []callFrame
	stores    []storeEntry

	res Result
}

// Run executes the program on the modeled core.
//
// Concurrency contract: Run treats p as strictly read-only; the emulator
// driving the trace and all timing state (schedules, predictor, LSQ,
// memory system) are allocated per call. Any number of Runs may share one
// *linear.Program concurrently (exercised under the race detector by
// TestConcurrentRunsShareProgram), and identical (p, cfg) inputs produce
// bit-identical Results.
func Run(p *linear.Program, cfg Config) (Result, error) {
	c, err := newCore(p, cfg)
	if err != nil {
		return Result{}, err
	}
	return c.run(c.step)
}

// newCore fills cfg's defaults and builds the timing state, main's
// activation entered.
func newCore(p *linear.Program, cfg Config) (*core, error) {
	if cfg.Fuel == 0 {
		cfg.Fuel = 500_000_000
	}
	memsys, err := mem.NewSystem(cfg.Mem)
	if err != nil {
		return nil, err
	}
	if cfg.ALUPorts == 0 {
		cfg.ALUPorts = cfg.IssueWidth
	}
	if cfg.MulDivPorts == 0 {
		cfg.MulDivPorts = 1
	}
	if cfg.LoadPorts == 0 {
		cfg.LoadPorts = 2
	}
	if cfg.StorePorts == 0 {
		cfg.StorePorts = 1
	}
	c := &core{
		cfg:        cfg,
		prog:       p,
		fetch:      newMonoSchedule(cfg.FetchWidth),
		issue:      newCapSchedule(cfg.IssueWidth),
		commit:     newMonoSchedule(cfg.CommitWidth),
		aluPort:    newCapSchedule(cfg.ALUPorts),
		mulPort:    newCapSchedule(cfg.MulDivPorts),
		loadPort:   newCapSchedule(cfg.LoadPorts),
		storePort:  newCapSchedule(cfg.StorePorts),
		memsys:     memsys,
		bp:         newGshare(cfg.GShareBits),
		robCommits: make([]int64, cfg.ROBSize),
	}
	c.enter(p.Entry)
	return c, nil
}

// run drives the program's trace through step, a model of one dynamic
// instruction (core.step; ooo_ref_test.go passes its reference).
func (c *core) run(step func(linear.TraceEvent)) (Result, error) {
	em := linear.NewEmulator(c.prog, c.cfg.Fuel)
	em.Trace = step
	v, err := em.Run()
	if err != nil {
		return Result{}, fmt.Errorf("ooo: %w", err)
	}
	c.res.Value = v
	c.res.Instrs = uint64(em.Instrs)
	c.res.Cycles = c.lastCommit + 1
	if c.res.Cycles > 0 {
		c.res.IPC = float64(c.res.Instrs) / float64(c.res.Cycles)
	}
	c.res.Mem = c.memsys.Stats()
	return c.res, nil
}

// enter pushes a fresh activation of function fn: every register unwritten.
func (c *core) enter(fn int) {
	c.base = len(c.regs)
	n := c.prog.Funcs[fn].NumRegs
	c.regs = slices.Grow(c.regs, n)[:c.base+n]
	c.frame = c.regs[c.base:]
	clear(c.frame)
}

// leave pops the innermost activation, returning to the caller's at base.
func (c *core) leave(base int) {
	c.regs = c.regs[:c.base]
	c.base = base
	c.frame = c.regs[base:]
}

func (c *core) ready(r cfgir.Reg) int64 { return c.frame[r] }

func (c *core) write(r cfgir.Reg, t int64) { c.frame[r] = t }

// issueAt grants an issue slot and a functional-unit port at or after
// ready.
func (c *core) issueAt(ready int64, port *capSchedule) int64 {
	t := c.issue.reserve(ready)
	if port != nil {
		t = port.reserve(t)
	}
	return t
}

// step models one dynamic instruction of the trace.
func (c *core) step(ev linear.TraceEvent) {
	in := ev.Instr

	// Fetch: front-end bandwidth plus sequential ordering.
	fetchT := c.fetch.reserve(c.fetchMin)

	// Dispatch: decode pipeline plus a free reorder-buffer slot.
	dispatch := fetchT + c.cfg.DecodeDepth
	if robFree := c.robCommits[c.robHead] + 1; dispatch < robFree {
		dispatch = robFree
	}

	ready := dispatch
	up := func(t int64) {
		if t > ready {
			ready = t
		}
	}
	pcKey := uint64(ev.Func)<<20 | uint64(ev.PC)
	var execDone int64

	switch in.Op {
	case linear.LConst:
		issueT := c.issueAt(ready, c.aluPort)
		execDone = issueT + c.cfg.IntLatency
		c.write(in.Rd, execDone)
	case linear.LAlu:
		up(c.ready(in.Ra))
		if in.Alu.NumInputs() == 2 {
			up(c.ready(in.Rb))
		}
		issueT := c.issueAt(ready, c.fuPort(in))
		execDone = issueT + c.aluLatency(in)
		c.write(in.Rd, execDone)
	case linear.LSelect:
		up(c.ready(in.Ra))
		up(c.ready(in.Rb))
		up(c.ready(in.Rc))
		issueT := c.issueAt(ready, c.aluPort)
		execDone = issueT + c.cfg.IntLatency
		c.write(in.Rd, execDone)
	case linear.LLoad:
		c.res.Loads++
		up(c.ready(in.Ra))
		adjusted, forwarded := c.loadConstraints(ready, ev.Addr)
		issueT := c.issueAt(adjusted, c.loadPort)
		if forwarded {
			c.res.Forwards++
			execDone = issueT + c.cfg.IntLatency
		} else {
			ar := c.memsys.Access(0, ev.Addr, false)
			execDone = issueT + ar.Latency
		}
		c.write(in.Rd, execDone)
	case linear.LStore:
		c.res.Stores++
		addrReady := max64(dispatch, c.ready(in.Ra))
		dataReady := max64(dispatch, c.ready(in.Rb))
		issueT := c.issueAt(max64(addrReady, dataReady), c.storePort)
		execDone = issueT
		c.pushStore(storeEntry{dataReady: dataReady, addr: ev.Addr})
		// Stats at retirement; the write buffer hides the latency.
		c.memsys.Access(0, ev.Addr, true)
	case linear.LJump:
		issueT := c.issueAt(ready, nil)
		execDone = issueT
		c.fetchMin = max64(c.fetchMin, fetchT+1) // redirect after a taken jump
	case linear.LBranch:
		c.res.Branches++
		up(c.ready(in.Ra))
		issueT := c.issueAt(ready, c.aluPort)
		execDone = issueT + c.cfg.IntLatency
		pred := c.bp.predict(pcKey)
		c.bp.update(pcKey, ev.Taken)
		if pred != ev.Taken {
			c.res.Mispredicts++
			c.fetchMin = max64(c.fetchMin, execDone+c.cfg.MispredictPenalty)
		} else if ev.Taken {
			c.fetchMin = max64(c.fetchMin, fetchT+1)
		}
	case linear.LCall:
		issueT := c.issueAt(ready, nil)
		execDone = issueT
		// Arguments move into the callee's fresh frame through rename;
		// register windows mean no memory traffic. The caller's frame is
		// read through the slice taken before the push: growing the slab
		// copies it, and only the callee's frame is written here.
		caller := c.frame
		c.callStack = append(c.callStack, callFrame{base: c.base, rd: in.Rd})
		c.enter(in.Callee)
		calleeParams := c.prog.Funcs[in.Callee].Params
		for i, a := range in.Args {
			c.write(calleeParams[i], max64(execDone, caller[a]))
		}
		c.fetchMin = max64(c.fetchMin, fetchT+1)
	case linear.LRet:
		up(c.ready(in.Ra))
		issueT := c.issueAt(ready, nil)
		execDone = issueT
		if n := len(c.callStack); n > 0 {
			cf := c.callStack[n-1]
			c.callStack = c.callStack[:n-1]
			c.leave(cf.base)
			c.write(cf.rd, execDone)
		}
		c.fetchMin = max64(c.fetchMin, fetchT+1)
	}

	// In-order retirement.
	ct := c.commit.reserve(max64(execDone, c.lastCommit))
	c.lastCommit = ct
	c.robCommits[c.robHead] = ct
	c.robHead = (c.robHead + 1) % c.cfg.ROBSize
}

// fuPort selects the functional-unit port pool for an ALU instruction.
func (c *core) fuPort(in *linear.Instr) *capSchedule {
	switch in.Alu {
	case isa.OpMul, isa.OpDiv, isa.OpRem:
		return c.mulPort
	}
	return c.aluPort
}

func (c *core) aluLatency(in *linear.Instr) int64 {
	switch in.Alu {
	case isa.OpMul:
		return c.cfg.MulLatency
	case isa.OpDiv, isa.OpRem:
		return c.cfg.DivLatency
	}
	return c.cfg.IntLatency
}

// loadConstraints applies LSQ ordering to a load whose address is ready at
// t, returning the adjusted ready time and whether an in-flight store
// forwarded the value.
func (c *core) loadConstraints(t int64, addr int64) (int64, bool) {
	forwarded := false
	for i := range c.stores {
		s := &c.stores[i]
		if s.addr == addr {
			forwarded = true
			if s.dataReady > t {
				t = s.dataReady
			}
		}
	}
	return t, forwarded
}

func (c *core) pushStore(s storeEntry) {
	c.stores = append(c.stores, s)
	if len(c.stores) > c.cfg.LSQSize {
		c.stores = c.stores[1:]
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
