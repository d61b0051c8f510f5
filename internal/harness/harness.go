// Package harness compiles the benchmark suite through both backends and
// runs the reconstructed MICRO 2003 evaluation: experiments E1–E15 and M1,
// each regenerating one table/figure of the paper's evaluation section or
// of its follow-ups (see DESIGN.md for the experiment index and
// EXPERIMENTS.md for results and paper-vs-measured discussion).
//
// Every experiment is expressed as a set of independent simulation cells —
// one (workload, configuration, engine) run each — fanned across a bounded
// worker pool (internal/parallel) and collected into index-addressed slots,
// so the rendered tables are byte-identical whatever the worker count.
// Each cell constructs its own placement policy, memory system, and
// simulator state; the shared *isa.Program and *linear.Program are
// read-only during simulation (see the concurrency contracts on
// wavecache.Run and ooo.Run).
package harness

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wavescalar/internal/cfgir"
	"wavescalar/internal/isa"
	"wavescalar/internal/lang"
	"wavescalar/internal/linear"
	"wavescalar/internal/ooo"
	"wavescalar/internal/parallel"
	"wavescalar/internal/placement"
	"wavescalar/internal/stats"
	"wavescalar/internal/wavec"
	"wavescalar/internal/wavecache"
	"wavescalar/internal/workloads"
)

// Compiled is one workload built for every engine. A dataflow binary that
// CompileOptions.Binaries left out is nil; Binary returns one by name.
type Compiled struct {
	Name     string
	Src      string       // the wsl source
	Wave     *isa.Program // steer-based dataflow binary
	WaveSel  *isa.Program // φ-select (if-converted) dataflow binary
	WaveNoUn *isa.Program // without loop unrolling (E11)
	Linear   *linear.Program
	Checksum int64
	// Image is the wavecache.ImageDigest of the final memory image, on
	// which the evaluator and the linear emulator agree.
	Image uint64
	// UsefulInstrs is the dynamic linear instruction count: the
	// architecture-neutral work metric (the paper's "Alpha-equivalent"
	// instruction count). Note it is measured on the binary this Compiled
	// was built with, so at OptLevel >= 1 it reflects the optimized
	// program.
	UsefulInstrs int64
	// Opt is the optimization level the pipeline ran at; MemOpt the
	// memory tier's per-pass counters (zero at Opt 0) and Chains the
	// wave binary's memory-chain statistics.
	Opt    int
	MemOpt cfgir.MemOptStats
	Chains wavec.ChainStats
}

// Binary returns the named dataflow binary, or an error when the name is
// not one of BinaryNames or this Compiled was built without it.
func (c *Compiled) Binary(name string) (*isa.Program, error) {
	var p *isa.Program
	switch name {
	case "steer":
		p = c.Wave
	case "select":
		p = c.WaveSel
	case "rolled":
		p = c.WaveNoUn
	default:
		return nil, fmt.Errorf("harness: unknown binary %q (%s)", name, strings.Join(BinaryNames, ", "))
	}
	if p == nil {
		return nil, fmt.Errorf("%s: the %s binary was not built", c.Name, name)
	}
	return p, nil
}

// CompileSummary renders the memory-optimization tier's counters summed
// over the programs of set compiled at OptLevel 1 or above (the compile
// table of waveexp -metrics).
func CompileSummary(set []*Compiled) *stats.Table {
	var n, fwd, reused, promoted, dead, memops, instrs, slots, nops int64
	for _, c := range set {
		if c.Opt < 1 {
			continue
		}
		mo := &c.MemOpt
		n++
		fwd += mo.StoresForwarded
		reused += mo.LoadsReused
		promoted += mo.LoadsPromoted
		dead += mo.DeadStores
		memops += mo.MemBefore - mo.MemAfter
		instrs += mo.Eliminated()
		slots += c.Chains.Slots
		nops += c.Chains.Nops
	}
	t := stats.NewTable("compile: memory-optimization tier (all workloads)", "metric", "value")
	t.AddRow("programs optimized", n)
	t.AddRow("stores forwarded", fwd)
	t.AddRow("loads reused", reused)
	t.AddRow("loads promoted", promoted)
	t.AddRow("dead stores", dead)
	t.AddRow("mem ops eliminated", memops)
	t.AddRow("instrs eliminated", instrs)
	t.AddRow("chain slots", slots)
	t.AddRow("chain mem-nops", nops)
	return t
}

// CompileSource builds an arbitrary wsl source — a named workload or a
// generated corpus program — through the full pipeline, cross-checking
// the linear emulator's checksum and final memory image against the AST
// evaluator's. Those two reference runs happen here and nowhere else: the
// differential engines are held to Checksum and Image.
//
// Each piece of work is done once, and what waits on nothing else runs
// beside it (DESIGN.md §11 draws the graph). The source is parsed and
// checked once. lang.Unroll rewrites the file in place, so the two things
// that need the file as written come before it: the evaluator binds its
// names — and then runs on a goroutine of its own, never looking at the file
// again — and the rolled IR, when that binary is asked for, is lowered. The
// IR is built once per distinct unroll factor; the rolled one is optimized
// and lowered to its binary on a second goroutine while the caller builds
// the IR at opts.Unroll — the same IR, and the same binary, when unrolling
// found no loop to rewrite. All the binaries at opts.Unroll lower that one
// IR, so they run the same optimized program: linear.Compile only reads it,
// the φ-select build gets a clone because wavec.Compile consumes its input,
// and the steer build then consumes the original while the emulator runs
// the linear program. The clone is if-converted before it is lowered: when
// that converts nothing it is still the IR the steer build lowers, and
// WaveSel is the steer binary itself, as WaveNoUn is when unrolling rewrote
// nothing. opts.Binaries leaves out the lowerings nobody asked for — the
// clone and if-conversion, the second IR — and nothing else.
//
// Which stage an error names is fixed, whatever finished first: an evaluator
// out of fuel before anything else; then a front-end, build or lowering
// error, then the emulator's, then the evaluator's, then a checksum
// mismatch, then a memory-image mismatch. An evaluator that runs dry stops
// the emulator as well, so a source that does not terminate costs one budget
// of time and not two.
func CompileSource(name, src string, opts CompileOptions) (*Compiled, error) {
	c, _, err := compileSource(name, src, opts, 0, 0)
	return c, err
}

// compileSource is CompileSource with the two reference engines' budgets
// (evaluator steps, emulator instructions; 0 = each engine's default). It
// also reports how many instructions the emulator executed, error or not.
func compileSource(name, src string, opts CompileOptions, evalFuel, emuFuel int64) (_ *Compiled, emulated int64, _ error) {
	c := &Compiled{Name: name, Src: src, Opt: opts.OptLevel}
	stage := func(what string, err error) error {
		if err == nil {
			return nil
		}
		return fmt.Errorf("%s: %s: %w", name, what, err)
	}
	if err := opts.Validate(); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", name, err)
	}
	steer, sel, rolled := opts.builds("steer"), opts.builds("select"), opts.builds("rolled")

	f, err := lang.ParseAndCheck(src)
	if err != nil {
		return nil, 0, stage("frontend", err)
	}
	ev := lang.NewEvaluator(f, evalFuel)

	// Each stage writes variables (and fields of c) that are its own until
	// the join, and from here on only the calling goroutine touches f: there
	// is nothing to lock.
	var (
		want                        int64
		evalErr, emuErr             error
		irErr                       error // the caller's chain: both lowerings to IR, then to the linear program
		selErr, steerErr, rolledErr error
		steerProg                   *isa.Program
		selIsSteer                  bool
		em                          *linear.Emulator
		evalDry                     atomic.Bool
	)
	func() {
		var g parallel.Group
		defer g.Wait() // the join, also when this goroutine returns early or panics
		g.Go(func() {
			if want, evalErr = ev.Run(); errors.Is(evalErr, lang.ErrOutOfFuel) {
				evalDry.Store(true)
			}
		})

		// ir is the program at opts.Unroll. It is the rolled program too
		// unless lang.Unroll finds a loop to rewrite: then what was lowered
		// from the file as written is optimized and compiled on its own.
		var ir *cfgir.Program
		if rolled {
			if ir, err = cfgir.Lower(f); err != nil {
				irErr = stage("build", err)
				return
			}
		}
		rolledIsSteer := rolled
		if lang.Unroll(f, opts.Unroll) > 0 && rolled {
			rolledIR := ir
			ir, rolledIsSteer = nil, false
			g.Go(func() {
				rolledIR.OptimizeTo(opts.OptLevel)
				c.WaveNoUn, rolledErr = wavec.Compile(rolledIR, wavec.Options{})
			})
		}
		if ir == nil {
			if ir, err = cfgir.Lower(f); err != nil {
				irErr = stage("build", err)
				return
			}
		}
		c.MemOpt = ir.OptimizeTo(opts.OptLevel)
		// The if-converted build starts first: it is the longest of the
		// stages left. Its copy and linear.Compile only read ir.
		lowerSteer := steer || rolledIsSteer
		if sel {
			selIR := ir.Clone()
			g.Go(func() {
				if converted := selIR.IfConvert(); converted == 0 && lowerSteer {
					selIsSteer = true // selIR is still what the steer build lowers
					return
				}
				c.WaveSel, selErr = wavec.Compile(selIR, wavec.Options{}) // if-converted above
			})
		}
		if c.Linear, err = linear.Compile(ir); err != nil {
			irErr = stage("linear", err)
			return
		}
		em = linear.NewEmulator(c.Linear, emuFuel)
		em.Stop = &evalDry
		g.Go(func() { c.Checksum, emuErr = em.Run() })

		if !lowerSteer {
			return
		}
		if steerProg, steerErr = wavec.Compile(ir, wavec.Options{}); steerErr != nil {
			return
		}
		if steer {
			c.Wave = steerProg
			c.Chains = wavec.MeasureChains(steerProg)
		}
		if rolledIsSteer {
			c.WaveNoUn = steerProg
		}
	}()
	if em != nil {
		emulated = em.Instrs
	}

	if errors.Is(evalErr, lang.ErrOutOfFuel) {
		return nil, emulated, stage("evaluator", evalErr)
	}
	for _, err := range []error{
		irErr, stage("wavec", selErr), stage("wavec", steerErr), stage("wavec", rolledErr),
		stage("linear emulator", emuErr),
		stage("evaluator", evalErr),
	} {
		if err != nil {
			return nil, emulated, err
		}
	}
	if want != c.Checksum {
		return nil, emulated, fmt.Errorf("%s: linear checksum %d != evaluator %d", name, c.Checksum, want)
	}
	c.Image = wavecache.ImageDigest(em.Memory())
	if evImage := wavecache.ImageDigest(ev.Memory()); evImage != c.Image {
		return nil, emulated, fmt.Errorf("%s: linear memory image %016x != evaluator %016x", name, c.Image, evImage)
	}
	if selIsSteer {
		c.WaveSel = steerProg
	}
	c.UsefulInstrs = emulated
	return c, emulated, nil
}

// Suite compiles a set of workloads (all of them if names is empty).
// Workloads compile concurrently across opts.Workers goroutines; the
// returned slice is ordered by name position, independent of which
// compilation finished first.
func Suite(names []string, opts CompileOptions) ([]*Compiled, error) {
	if len(names) == 0 {
		names = workloads.Names()
	}
	picked := make([]*workloads.Workload, len(names))
	for i, n := range names {
		w := workloads.ByName(n)
		if w == nil {
			return nil, fmt.Errorf("harness: unknown workload %q", n)
		}
		picked[i] = w
	}
	return parallel.MapCtx(opts.ctx(), opts.Workers, len(picked), func(i int) (*Compiled, error) {
		return CompileSource(picked[i].Name, picked[i].Src, opts)
	})
}

// runWaveWith builds m for prog and runs RunWave: every WaveCache cell of
// the experiments is a binary and a MachineOptions. A caller that turns a
// knob assigns it on its own copy of m first.
func runWaveWith(c *Compiled, prog *isa.Program, m MachineOptions) (wavecache.Result, error) {
	cfg, pol, err := m.Build(prog)
	if err != nil {
		return wavecache.Result{}, fmt.Errorf("%s: %w", c.Name, err)
	}
	return RunWave(c, prog, pol, cfg)
}

// wave declares the shape of almost every experiment cell: runWaveWith,
// its result stored in out, a slot the cell owns.
func (cs *cellSet) wave(c *Compiled, prog *isa.Program, m MachineOptions, out *wavecache.Result) {
	cs.add(c, func() (err error) {
		*out, err = runWaveWith(c, prog, m)
		return err
	})
}

// arenaPool recycles simulator arenas across experiment cells: a sweep
// pays the simulator's internal allocations roughly once per worker instead
// of once per cell, while each in-flight cell still owns its arena
// exclusively. Reuse is results-neutral — see wavecache.Arena.
var arenaPool = sync.Pool{New: func() any { return wavecache.NewArena() }}

// runPooled is wavecache.Run on an arena from the pool: the door harness
// simulations go through (the differential engines take the arena themselves,
// to digest its memory image before handing it back).
func runPooled(prog *isa.Program, pol placement.Policy, cfg wavecache.Config) (wavecache.Result, error) {
	a := arenaPool.Get().(*wavecache.Arena)
	res, err := a.Run(prog, pol, cfg)
	arenaPool.Put(a)
	return res, err
}

// RunWave simulates a dataflow binary and checks its checksum.
func RunWave(c *Compiled, prog *isa.Program, pol placement.Policy, cfg wavecache.Config) (wavecache.Result, error) {
	res, err := runPooled(prog, pol, cfg)
	if err != nil {
		return res, fmt.Errorf("%s: wavecache: %w", c.Name, err)
	}
	if res.Value != c.Checksum {
		return res, fmt.Errorf("%s: wavecache checksum %d != %d", c.Name, res.Value, c.Checksum)
	}
	return res, nil
}

// DefaultOoOConfig is the baseline superscalar configuration for the
// experiments.
func DefaultOoOConfig() ooo.Config { return ooo.DefaultConfig() }

// RunOoO simulates the superscalar baseline and checks its checksum.
func RunOoO(c *Compiled, cfg ooo.Config) (ooo.Result, error) {
	res, err := ooo.Run(c.Linear, cfg)
	if err != nil {
		return res, fmt.Errorf("%s: %w", c.Name, err)
	}
	if res.Value != c.Checksum {
		return res, fmt.Errorf("%s: ooo checksum %d != %d", c.Name, res.Value, c.Checksum)
	}
	return res, nil
}

// AIPC is the architecture-neutral performance metric used throughout the
// experiments: useful (linear) instructions per cycle. It charges the
// WaveCache for its dataflow overhead instructions implicitly (they consume
// cycles but do not count as work), mirroring the paper's Alpha-equivalent
// IPC.
func AIPC(useful int64, cycles int64) float64 {
	if cycles <= 0 {
		return 0
	}
	return float64(useful) / float64(cycles)
}

// Experiment is one reconstructed table/figure.
type Experiment struct {
	ID    string
	Title string
	// Claim is the paper's qualitative claim this experiment probes.
	Claim string
	Run   func(set []*Compiled, m MachineOptions) (*stats.Table, error)
}

// RunAll executes exps in order (Experiments for the whole evaluation) and
// is the one printer of an experiment section: header, claim, table, then a
// wall-clock line. The timing lines are the only output that varies between
// runs; the tables themselves are deterministic at any m.Workers setting.
// With m.Metrics installed, each experiment's table is followed by the
// merged WaveCache trace-counter summary of its cells (also deterministic).
func RunAll(exps []Experiment, set []*Compiled, m MachineOptions, w io.Writer) error {
	for _, e := range exps {
		if err := m.ctx().Err(); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(w, "\n## %s — %s\n\n", e.ID, e.Title)
		fmt.Fprintf(w, "Paper claim: %s\n\n", e.Claim)
		t0 := time.Now()
		tbl, err := e.Run(set, m)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(w, tbl.Render())
		WriteMetrics(e.ID, m, w)
		fmt.Fprintf(w, "(%s in %v)\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
	return nil
}

// WriteMetrics renders and resets the experiment-level metrics aggregate
// (a no-op when metrics collection is off or no WaveCache cell ran).
func WriteMetrics(id string, m MachineOptions, w io.Writer) {
	if m.Metrics == nil || m.Metrics.Runs() == 0 {
		return
	}
	fmt.Fprintln(w, m.Metrics.Summary(id+": WaveCache trace metrics (all cells)").Render())
	m.Metrics.Reset()
}

// idealMachine is the unbounded-resource dataflow machine used as the
// "ideal dataflow" column of E1: infinite queues and stores, instructions
// spread one to a PE so none contend, oracle memory ordering, free swaps,
// and the "ideal" regime's free network and single-cycle caches.
var idealMachine = MachineOptions{GridW: 8, GridH: 8, Density: 1, PEStore: 1 << 20, InputQueue: maxCount,
	Policy: "dynamic-snake", MemMode: wavecache.MemIdeal, Regime: "ideal", SwapPenalty: zeroed}
