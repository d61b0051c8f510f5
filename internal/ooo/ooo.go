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

// Config parameterizes the core: the widths and window size experiments
// vary, and the memory hierarchy E1b's regimes swap. Everything else about
// the modeled machine is a constant below.
type Config struct {
	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	ROBSize     int

	Mem mem.SystemConfig
}

// The fixed parameters of the modeled core.
const (
	lsqSize           = 64 // in-flight stores the LSQ holds
	decodeDepth       = 15 // front-end stages between fetch and dispatch
	mispredictPenalty = 15
	gshareBits        = 14 // log2 of predictor table size

	intLatency = 1
	mulLatency = 3
	divLatency = 20

	// Functional-unit ports per cycle.
	aluPorts    = 4
	mulDivPorts = 1
	loadPorts   = 2
	storePorts  = 1

	fuel = 500_000_000 // bound on dynamic instructions
)

// DefaultConfig is the aggressive superscalar of the evaluation: 8-wide,
// 15-stage front end, 256-entry window, gshare prediction.
func DefaultConfig() Config {
	return Config{
		FetchWidth:  8,
		IssueWidth:  8,
		CommitWidth: 8,
		ROBSize:     256,
		Mem:         mem.DefaultSystemConfig(1),
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
// path-compressed skip pointers (absolute cycles) to the next candidate, so
// a reserve behind an arbitrarily long full region costs amortized
// near-constant time. The schedule holds only the cycles a request can
// still name: a window [base, base+len(cells)) kept as a ring, cycle t in
// cell t mod len(cells). prune moves base up and empties the cells it
// passes, so the window is as long as the farthest request is ahead of the
// watermark, not as long as the run.
type capSchedule struct {
	width int32
	base  int64     // no request names a cycle below base
	cells []capCell // power-of-two ring over the window
	chain []int64   // reusable path-compression scratch (cycles)
}

// capCell is one cycle's schedule state. skip == 0 means "no skip
// pointer" (a real skip target is always > its source cycle >= 0, so 0
// is never a valid target).
type capCell struct {
	count int32
	skip  int64
}

func newCapSchedule(width int) *capSchedule {
	return &capSchedule{width: int32(width), cells: make([]capCell, 256)}
}

func (c *capSchedule) at(t int64) *capCell { return &c.cells[t&int64(len(c.cells)-1)] }

// inWindow reports whether cycle t (>= base) has a cell.
func (c *capSchedule) inWindow(t int64) bool { return t-c.base < int64(len(c.cells)) }

// reserve returns the first cycle >= t with a free slot and takes it,
// compressing skip pointers along the probed chain. t must be >= base.
func (c *capSchedule) reserve(t int64) int64 {
	chain := c.chain[:0]
	for c.inWindow(t) && c.at(t).count >= c.width {
		chain = append(chain, t)
		if nx := c.at(t).skip; nx != 0 {
			t = nx
		} else {
			t++
		}
	}
	for _, s := range chain {
		c.at(s).skip = t
	}
	c.chain = chain
	if !c.inWindow(t) {
		c.grow(t)
	}
	c.at(t).count++
	return t
}

// grow doubles the ring until it reaches cycle t.
func (c *capSchedule) grow(t int64) {
	old := *c
	n := len(c.cells)
	for int64(n) <= t-c.base {
		n *= 2
	}
	c.cells = make([]capCell, n)
	for u := old.base; old.inWindow(u); u++ {
		*c.at(u) = *old.at(u)
	}
}

// prune forgets the cycles below w: no later request may name one.
func (c *capSchedule) prune(w int64) {
	if c.inWindow(w) {
		for t := c.base; t < w; t++ {
			*c.at(t) = capCell{}
		}
	} else {
		clear(c.cells)
	}
	c.base = max(c.base, w)
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

	// The LSQ: a ring of lsqSize in-flight stores, stores[oldest] the next
	// overwritten once it is full.
	stores []storeEntry
	oldest int

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

// newCore builds the timing state, main's activation entered.
func newCore(p *linear.Program, cfg Config) (*core, error) {
	memsys, err := mem.NewSystem(cfg.Mem)
	if err != nil {
		return nil, err
	}
	c := &core{
		cfg:        cfg,
		prog:       p,
		fetch:      newMonoSchedule(cfg.FetchWidth),
		issue:      newCapSchedule(cfg.IssueWidth),
		commit:     newMonoSchedule(cfg.CommitWidth),
		aluPort:    newCapSchedule(aluPorts),
		mulPort:    newCapSchedule(mulDivPorts),
		loadPort:   newCapSchedule(loadPorts),
		storePort:  newCapSchedule(storePorts),
		memsys:     memsys,
		bp:         newGshare(gshareBits),
		robCommits: make([]int64, cfg.ROBSize),
		stores:     make([]storeEntry, 0, lsqSize),
	}
	c.enter(p.Entry)
	return c, nil
}

// run drives the program's trace through step, a model of one dynamic
// instruction (core.step; ooo_ref_test.go passes its reference).
func (c *core) run(step func(linear.TraceEvent)) (Result, error) {
	em := linear.NewEmulator(c.prog, fuel)
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

// dispatch returns the cycle the instruction fetched at fetchT enters the
// window: the decode pipeline behind it plus a free reorder-buffer slot.
// That is the maximum of two non-decreasing streams (fetch grants, and
// commits ROBSize instructions back), and every reservation the
// instruction makes is at or after it, so no later request names a cycle
// below it: every port schedule forgets them.
func (c *core) dispatch(fetchT int64) int64 {
	dispatch := max(fetchT+decodeDepth, c.robCommits[c.robHead]+1)
	for _, s := range [...]*capSchedule{c.issue, c.aluPort, c.mulPort, c.loadPort, c.storePort} {
		s.prune(dispatch)
	}
	return dispatch
}

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
	dispatch := c.dispatch(fetchT)

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
		execDone = issueT + intLatency
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
		execDone = issueT + intLatency
		c.write(in.Rd, execDone)
	case linear.LLoad:
		c.res.Loads++
		up(c.ready(in.Ra))
		adjusted, forwarded := c.loadConstraints(ready, ev.Addr)
		issueT := c.issueAt(adjusted, c.loadPort)
		if forwarded {
			c.res.Forwards++
			execDone = issueT + intLatency
		} else {
			ar := c.memsys.Access(0, ev.Addr, false)
			execDone = issueT + ar.Latency
		}
		c.write(in.Rd, execDone)
	case linear.LStore:
		c.res.Stores++
		addrReady := max(dispatch, c.ready(in.Ra))
		dataReady := max(dispatch, c.ready(in.Rb))
		issueT := c.issueAt(max(addrReady, dataReady), c.storePort)
		execDone = issueT
		c.pushStore(storeEntry{dataReady: dataReady, addr: ev.Addr})
		// Stats at retirement; the write buffer hides the latency.
		c.memsys.Access(0, ev.Addr, true)
	case linear.LJump:
		issueT := c.issueAt(ready, nil)
		execDone = issueT
		c.fetchMin = max(c.fetchMin, fetchT+1) // redirect after a taken jump
	case linear.LBranch:
		c.res.Branches++
		up(c.ready(in.Ra))
		issueT := c.issueAt(ready, c.aluPort)
		execDone = issueT + intLatency
		pred := c.bp.predict(pcKey)
		c.bp.update(pcKey, ev.Taken)
		if pred != ev.Taken {
			c.res.Mispredicts++
			c.fetchMin = max(c.fetchMin, execDone+mispredictPenalty)
		} else if ev.Taken {
			c.fetchMin = max(c.fetchMin, fetchT+1)
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
			c.write(calleeParams[i], max(execDone, caller[a]))
		}
		c.fetchMin = max(c.fetchMin, fetchT+1)
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
		c.fetchMin = max(c.fetchMin, fetchT+1)
	}

	// In-order retirement.
	ct := c.commit.reserve(max(execDone, c.lastCommit))
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
		return mulLatency
	case isa.OpDiv, isa.OpRem:
		return divLatency
	}
	return intLatency
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

// pushStore enters s in the LSQ, in place of the oldest store once the
// ring is full. Forwarding takes the maximum over matching stores, so the
// ring's order is never read.
func (c *core) pushStore(s storeEntry) {
	switch {
	case len(c.stores) < cap(c.stores):
		c.stores = append(c.stores, s)
	case len(c.stores) > 0:
		c.stores[c.oldest] = s
		c.oldest = (c.oldest + 1) % len(c.stores)
	}
}
