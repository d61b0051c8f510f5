package ooo

import (
	"testing"

	"wavescalar/internal/cfgir"
	"wavescalar/internal/lang"
	"wavescalar/internal/linear"
	"wavescalar/internal/mem"
	"wavescalar/internal/testprogs"
	"wavescalar/internal/workloads"
)

// frameReg renames an architectural register within its activation frame:
// an activation number, not a position on a stack.
type frameReg struct {
	frame int64
	reg   cfgir.Reg
}

// mapRename is core.step as it was before renaming went through
// per-activation slices: one map from (frame, register) to the cycle the
// register's last write completes, never pruned, a miss reading 0. It is
// kept here as the reference the stack of frames is compared against (as
// match_ref_test.go keeps the table-only deliver), and it is the whole of
// the old path: nothing in it reads core.regs, core.frame or core.callStack.
// It numbers activations itself, in the order the trace's calls make them:
// main's is 0.
type mapRename struct {
	*core
	byFrame map[frameReg]int64
	frame   int64      // the running activation
	frames  int64      // activations made so far
	calls   []frameReg // the caller's frame and destination, per live call
}

func (m *mapRename) ready(frame int64, r cfgir.Reg) int64 {
	return m.byFrame[frameReg{frame: frame, reg: r}]
}

func (m *mapRename) write(frame int64, r cfgir.Reg, t int64) {
	m.byFrame[frameReg{frame: frame, reg: r}] = t
}

func (m *mapRename) step(ev linear.TraceEvent) {
	c := m.core
	in := ev.Instr
	frame := m.frame

	fetchT := c.fetch.Grant(c.fetchMin, int64(c.cfg.FetchWidth))
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
		m.write(frame, in.Rd, execDone)
	case linear.LLoad:
		c.res.Loads++
		up(m.ready(frame, in.Ra))
		adjusted, forwarded := c.loadConstraints(ready, ev.Addr)
		issueT := c.issueAt(adjusted, c.loadPort)
		if forwarded {
			c.res.Forwards++
			execDone = issueT + intLatency
		} else {
			ar := c.memsys.Access(0, ev.Addr, false)
			execDone = issueT + ar.Latency
		}
		m.write(frame, in.Rd, execDone)
	case linear.LStore:
		c.res.Stores++
		addrReady := max(dispatch, m.ready(frame, in.Ra))
		dataReady := max(dispatch, m.ready(frame, in.Rb))
		issueT := c.issueAt(max(addrReady, dataReady), c.storePort)
		execDone = issueT
		c.pushStore(storeEntry{dataReady: dataReady, addr: ev.Addr})
		c.memsys.Access(0, ev.Addr, true)
	case linear.LJump:
		issueT := c.issueAt(ready, nil)
		execDone = issueT
		c.fetchMin = max(c.fetchMin, fetchT+1)
	case linear.LBranch:
		c.res.Branches++
		up(m.ready(frame, in.Ra))
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
		m.frames++
		callee := m.frames
		calleeParams := c.prog.Funcs[in.Imm].Params
		moves := c.prog.Funcs[ev.Func].Moves[in.Ra:in.Rb]
		for i := 1; i < len(moves); i += 2 {
			t := max(execDone, m.ready(frame, moves[i]))
			m.write(callee, calleeParams[i/2], t)
		}
		m.calls = append(m.calls, frameReg{frame: frame, reg: in.Rd})
		m.frame = callee
		c.fetchMin = max(c.fetchMin, fetchT+1)
	case linear.LRet:
		up(m.ready(frame, in.Ra))
		issueT := c.issueAt(ready, nil)
		execDone = issueT
		if n := len(m.calls); n > 0 {
			cf := m.calls[n-1]
			m.calls = m.calls[:n-1]
			m.write(cf.frame, cf.reg, execDone)
			m.frame = cf.frame
		}
		c.fetchMin = max(c.fetchMin, fetchT+1)
	default: // LAdd through LGe
		up(m.ready(frame, in.Ra))
		if in.Op.ALU().NumInputs() == 2 {
			up(m.ready(frame, in.Rb))
		}
		issueT := c.issueAt(ready, c.fuPort(in.Op))
		execDone = issueT + aluLatency(in.Op)
		m.write(frame, in.Rd, execDone)
	}

	ct := c.commit.Grant(max(execDone, c.lastCommit), int64(c.cfg.CommitWidth))
	c.lastCommit = ct
	c.robCommits[c.robHead] = ct
	c.robHead = (c.robHead + 1) % c.cfg.ROBSize
}

func runMapRename(p *linear.Program, cfg Config) (Result, error) {
	c, err := newCore(p, cfg)
	if err != nil {
		return Result{}, err
	}
	m := &mapRename{core: c, byFrame: make(map[frameReg]int64)}
	return c.run(m.step)
}

// compileLinear lowers src the way the experiment harness does before it
// hands a program to Run: unrolled by 4, optimized at O1.
func compileLinear(t testing.TB, src string) *linear.Program {
	t.Helper()
	f, err := lang.ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	lang.Unroll(f, 4)
	p, err := cfgir.Lower(f)
	if err != nil {
		t.Fatal(err)
	}
	p.OptimizeTo(1)
	lp, err := linear.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return lp
}

// TestRenameMatchesMapReference: renaming through a stack of per-activation
// frames gives the identical Result to the map keyed by (frame, register) on
// the ten kernels and two recursive corpus programs, under the default core
// (E1b's cache-resident regime) and E1b's other two regimes (their hierarchies are copied from internal/harness,
// which this package cannot import). The two longest traces, twolf's 1.8 M
// instructions and gzip's 0.9 M, run the default core only: they are over
// half of the matrix's cost, and the map reference is slower than the model.
func TestRenameMatchesMapReference(t *testing.T) {
	progs := map[string]*linear.Program{}
	var names []string
	for _, w := range workloads.All {
		names = append(names, w.Name)
		progs[w.Name] = compileLinear(t, w.Src)
	}
	for _, c := range testprogs.Corpus {
		if c.Name == "recursion_memory" || c.Name == "ackermann_tiny" {
			names = append(names, c.Name)
			progs[c.Name] = compileLinear(t, c.Src)
		}
	}
	if len(names) != len(workloads.All)+2 {
		t.Fatalf("recursive corpus programs missing: %v", names)
	}
	configs := []struct {
		name  string
		apply func(*Config)
	}{
		{"default", func(*Config) {}},
		{"L1-starved", func(c *Config) { c.Mem.L1.SizeWords = 256 }},
		{"DRAM-heavy", func(c *Config) {
			c.Mem.L1.SizeWords = 256
			c.Mem.L2 = mem.CacheConfig{SizeWords: 512, LineWords: 16, Ways: 4}
			c.Mem.MemLatency = 300
		}},
	}
	for _, name := range names {
		for ci, cc := range configs {
			if ci > 0 && (name == "twolf" || name == "gzip") {
				continue
			}
			cfg := DefaultConfig()
			cc.apply(&cfg)
			got, err := Run(progs[name], cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, cc.name, err)
			}
			want, err := runMapRename(progs[name], cfg)
			if err != nil {
				t.Fatalf("%s/%s reference: %v", name, cc.name, err)
			}
			if got != want {
				t.Errorf("%s/%s: frame stack %+v\nmap reference %+v", name, cc.name, got, want)
			}
		}
	}
}
