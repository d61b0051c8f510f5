// Package harness compiles the benchmark suite through both backends and
// runs the reconstructed MICRO 2003 evaluation: experiments E1–E11, each
// regenerating one table/figure of the paper's evaluation section (see
// DESIGN.md for the experiment index and EXPERIMENTS.md for results and
// paper-vs-measured discussion).
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
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"wavescalar/internal/cfgir"
	"wavescalar/internal/interp"
	"wavescalar/internal/isa"
	"wavescalar/internal/lang"
	"wavescalar/internal/linear"
	"wavescalar/internal/mem"
	"wavescalar/internal/ooo"
	"wavescalar/internal/parallel"
	"wavescalar/internal/placement"
	"wavescalar/internal/stats"
	"wavescalar/internal/trace"
	"wavescalar/internal/wavec"
	"wavescalar/internal/wavecache"
	"wavescalar/internal/workloads"
)

// Compiled is one workload built for every engine. A dataflow binary that
// CompileOptions.Binaries left out is nil; Binary returns one by name.
type Compiled struct {
	Name     string
	Mirrors  string
	Src      string       // the wsl source (the AST-evaluator engine's input)
	Wave     *isa.Program // steer-based dataflow binary
	WaveSel  *isa.Program // φ-select (if-converted) dataflow binary
	WaveNoUn *isa.Program // without loop unrolling (E11)
	Linear   *linear.Program
	Checksum int64
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

// CompileOptions controls the build pipeline.
type CompileOptions struct {
	Unroll int // loop unrolling factor (0/1 = off)
	// OptLevel selects the optimizer tier: 0 runs only the base pipeline
	// (constant folding, CSE, dead code), 1 adds the memory tier
	// (store-to-load forwarding, redundant-load elimination, scalar
	// replacement, dead-store elimination — see cfgir.OptimizeMemory).
	// The level changes the compiled program, so it is part of every
	// compiled-program cache key.
	OptLevel int
	// Workers bounds the goroutines Suite compiles workloads across
	// (0 = one per CPU, 1 = sequential).
	Workers int
	// Binaries names the dataflow binaries to build, from BinaryNames; empty
	// builds all three. A binary that is not named is not lowered and its
	// Compiled field stays nil (Chains goes with "steer"); everything else
	// in Compiled, both cross-checks included, is produced regardless. The
	// three are different programs that only E9 and E11 compare, so a caller
	// that runs one of them (a served simulation) asks for that one.
	Binaries []string
	// Ctx, when non-nil, cancels a Suite compilation between workloads
	// (nil = never cancelled). Ctx does not affect compiled output, only
	// whether the remaining work runs.
	Ctx context.Context
}

// BinaryNames are the dataflow binaries of one source, as
// CompileOptions.Binaries and Compiled.Binary name them: "steer" is
// Compiled.Wave, "select" WaveSel and "rolled" WaveNoUn.
var BinaryNames = []string{"steer", "select", "rolled"}

// builds reports whether the options ask for the named binary.
func (o CompileOptions) builds(name string) bool {
	return len(o.Binaries) == 0 || slices.Contains(o.Binaries, name)
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

// DefaultCompileOptions is the harness pipeline: unroll by 4, as the
// paper's Alpha toolchain would, with the memory-optimization tier on.
// (The golden-snapshot tests pin OptLevel 0 explicitly so the recorded
// pre-optimizer binaries replay bit-for-bit.)
func DefaultCompileOptions() CompileOptions { return CompileOptions{Unroll: 4, OptLevel: 1} }

// Source returns the program's wsl source, falling back to the named
// workload's source for Compiled values predating the Src field.
func (c *Compiled) Source() string {
	if c.Src != "" {
		return c.Src
	}
	if w := workloads.ByName(c.Name); w != nil {
		return w.Src
	}
	return ""
}

// AddCompileMetrics folds the program's compile-time optimizer statistics
// into a trace metrics record (the compile-tier rows of the -metrics
// summary). A no-op for programs compiled at OptLevel 0.
func (c *Compiled) AddCompileMetrics(m *trace.Metrics) {
	if c.Opt < 1 {
		return
	}
	m.CompilePrograms++
	m.StoresForwarded += c.MemOpt.StoresForwarded
	m.LoadsReused += c.MemOpt.LoadsReused
	m.LoadsPromoted += c.MemOpt.LoadsPromoted
	m.DeadStores += c.MemOpt.DeadStores
	m.MemOpsEliminated += c.MemOpt.MemBefore - c.MemOpt.MemAfter
	m.InstrsEliminated += c.MemOpt.Eliminated()
	m.ChainSlots += c.Chains.Slots
	m.ChainNops += c.Chains.Nops
}

// CompileWorkload builds one workload through the full pipeline.
func CompileWorkload(w *workloads.Workload, opts CompileOptions) (*Compiled, error) {
	c, err := CompileSource(w.Name, w.Src, opts)
	if err != nil {
		return nil, err
	}
	c.Mirrors = w.Mirrors
	return c, nil
}

// CompileSource builds an arbitrary wsl source — a named workload or a
// generated corpus program — through the full pipeline, cross-checking
// the linear emulator's checksum against the AST evaluator exactly as the
// workload path always has.
//
// The optimized IR is built once per distinct unroll factor. All three
// binaries at opts.Unroll lower the same IR, so they run the same
// optimized program: linear.Compile only reads it, the φ-select build
// gets a clone because wavec.Compile consumes its input, and the steer
// build then consumes the original. The rolled binary needs a second IR
// only when unrolling rewrote a loop; otherwise it is the steer binary.
// opts.Binaries leaves out the lowerings nobody asked for — the clone and
// if-conversion, the second IR — and nothing else.
func CompileSource(name, src string, opts CompileOptions) (*Compiled, error) {
	c := &Compiled{Name: name, Src: src, Opt: opts.OptLevel}
	stage := func(what string, err error) error {
		return fmt.Errorf("%s: %s: %w", name, what, err)
	}
	for _, b := range opts.Binaries {
		if !slices.Contains(BinaryNames, b) {
			return nil, fmt.Errorf("%s: unknown binary %q (%s)", name, b, strings.Join(BinaryNames, ", "))
		}
	}
	steer, sel, rolled := opts.builds("steer"), opts.builds("select"), opts.builds("rolled")
	opt := max(opts.OptLevel, 0)

	ir, st, unrolled, err := cfgir.FromSource(src, opts.Unroll, opt)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	c.MemOpt = st
	if c.Linear, err = linear.Compile(ir); err != nil {
		return nil, stage("linear", err)
	}
	if sel {
		if c.WaveSel, err = wavec.Compile(ir.Clone(), wavec.Options{IfConvert: true}); err != nil {
			return nil, stage("wavec", err)
		}
	}
	rolledIsSteer := rolled && !unrolled
	if steer || rolledIsSteer {
		p, err := wavec.Compile(ir, wavec.Options{})
		if err != nil {
			return nil, stage("wavec", err)
		}
		if steer {
			c.Wave = p
			c.Chains = wavec.MeasureChains(p)
		}
		if rolledIsSteer {
			c.WaveNoUn = p
		}
	}
	if rolled && unrolled {
		rolledIR, _, _, err := cfgir.FromSource(src, 1, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if c.WaveNoUn, err = wavec.Compile(rolledIR, wavec.Options{}); err != nil {
			return nil, stage("wavec", err)
		}
	}

	em := linear.NewEmulator(c.Linear, 0)
	if c.Checksum, err = em.Run(); err != nil {
		return nil, stage("linear emulator", err)
	}
	c.UsefulInstrs = em.Instrs

	// Cross-check against the AST evaluator.
	want, err := lang.EvalProgram(src)
	if err != nil {
		return nil, stage("evaluator", err)
	}
	if want != c.Checksum {
		return nil, fmt.Errorf("%s: linear checksum %d != evaluator %d", name, c.Checksum, want)
	}
	return c, nil
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
		return CompileWorkload(picked[i], opts)
	})
}

// MachineOptions is the simulated-hardware configuration shared by the
// experiments.
type MachineOptions struct {
	GridW, GridH int
	// Density is the placement packing density (instruction homes per PE).
	// The published machine packs 64, sized for SPEC-scale working sets;
	// the kernels here are ~100x smaller, so the default preserves the
	// paper's ratio of packed instructions to working-set size.
	Density int
	// InputQueue is the PE matching-table capacity before spills.
	InputQueue int
	// Policy names the placement policy.
	Policy string
	// MaxCycles bounds each WaveCache cell's simulated time (0 = no
	// bound); corpus sweeps over generated programs set it so a
	// pathological cell aborts with a watchdog error instead of hanging
	// the sweep.
	MaxCycles int64
	// Workers bounds the goroutines an experiment fans its simulation
	// cells across (0 = one per CPU, 1 = sequential). Any value produces
	// byte-identical tables: cells collect results by index, never by
	// completion order.
	Workers int
	// Metrics, when non-nil, collects trace counters from every WaveCache
	// cell an experiment runs (the aggregate is thread-safe and its merge
	// commutative, so summaries are worker-count invariant). nil — the
	// default — leaves the simulators' tracing disabled and all tables
	// byte-identical to a metrics-free build.
	Metrics *trace.Aggregate
	// MemMode is the memory ordering mode handed to every WaveCache cell
	// that does not pin its own (the CLI -mem flag). The zero value is
	// the default wave-ordered mode; experiments that sweep modes
	// themselves (E4, E15) override it per cell.
	MemMode wavecache.MemoryMode
	// Ctx, when non-nil, cancels a sweep cooperatively: the worker pool
	// stops claiming cells once Ctx is done, and every WaveCache cell
	// inherits Ctx.Done() as its wavecache.Config.Cancel channel, so a
	// long-running cell aborts mid-simulation with a structured
	// cancellation FaultError instead of running to completion. nil — the
	// default — is never-cancelled and results-identical to the pre-Ctx
	// harness.
	Ctx context.Context
}

// DefaultMachineOptions is the tuned kernel-scale configuration.
func DefaultMachineOptions() MachineOptions {
	return MachineOptions{GridW: 4, GridH: 4, Density: 16, InputQueue: 64,
		Policy: "dynamic-depth-first-snake"}
}

// WaveConfig builds a wavecache config from the options.
func (m MachineOptions) WaveConfig() wavecache.Config {
	cfg := wavecache.DefaultConfig(m.GridW, m.GridH)
	cfg.Machine.Capacity = m.Density
	cfg.InputQueue = m.InputQueue
	cfg.Metrics = m.Metrics
	cfg.MaxCycles = m.MaxCycles
	cfg.MemMode = m.MemMode
	if m.Ctx != nil {
		cfg.Cancel = m.Ctx.Done()
	}
	return cfg
}

// ctx returns the options' context, defaulting to Background.
func (m MachineOptions) ctx() context.Context {
	if m.Ctx != nil {
		return m.Ctx
	}
	return context.Background()
}

// ctx returns the options' context, defaulting to Background.
func (o CompileOptions) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// NewPolicy instantiates the configured placement policy for a program.
// An unknown policy name or an unusable machine is reported as an error
// (surfaced through the experiment and CLI exit paths), not a panic.
func (m MachineOptions) NewPolicy(p *isa.Program) (placement.Policy, error) {
	pol, err := placement.New(m.Policy, m.WaveConfig().Machine, p, 12345)
	if err != nil {
		return nil, fmt.Errorf("harness: policy %q: %w", m.Policy, err)
	}
	return pol, nil
}

// runWaveWith builds m's placement policy for prog and runs RunWave; the
// shorthand most experiment cells use.
func runWaveWith(c *Compiled, prog *isa.Program, m MachineOptions, cfg wavecache.Config) (wavecache.Result, error) {
	pol, err := m.NewPolicy(prog)
	if err != nil {
		return wavecache.Result{}, err
	}
	return RunWave(c, prog, pol, cfg)
}

// arenaPool recycles simulator arenas across experiment cells: a sweep
// pays the simulator's internal allocations roughly once per worker instead
// of once per cell, while each in-flight cell still owns its arena
// exclusively. Reuse is results-neutral — see wavecache.Arena.
var arenaPool = sync.Pool{New: func() any { return wavecache.NewArena() }}

// RunWave simulates a dataflow binary and checks its checksum.
func RunWave(c *Compiled, prog *isa.Program, pol placement.Policy, cfg wavecache.Config) (wavecache.Result, error) {
	a := arenaPool.Get().(*wavecache.Arena)
	res, err := a.Run(prog, pol, cfg)
	arenaPool.Put(a)
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
		return res, err
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

// RunAll executes every experiment, writing each table to w as it
// completes, followed by a per-experiment wall-clock line. The timing
// lines are the only output that varies between runs; the tables
// themselves are deterministic at any m.Workers setting. With m.Metrics
// installed, each experiment's table is followed by the merged WaveCache
// trace-counter summary of its cells (also deterministic).
func RunAll(set []*Compiled, m MachineOptions, w io.Writer) error {
	for _, e := range Experiments {
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

// idealWaveConfig is the unbounded-resource dataflow machine used as the
// "ideal dataflow" column of E1: free network, infinite queues and stores,
// oracle memory ordering, single-cycle caches.
func idealWaveConfig() wavecache.Config {
	cfg := wavecache.DefaultConfig(8, 8)
	cfg.Machine.Capacity = 1 // spread maximally: no PE contention
	cfg.PEStore = 1 << 20
	cfg.SwapPenalty = 0
	cfg.InputQueue = 1 << 30
	cfg.BufferWidth = 1 << 20
	cfg.MemMsgLatency = 0
	cfg.MemMode = wavecache.MemIdeal
	cfg.Net.IntraPod = 1
	cfg.Net.IntraDomain = 1
	cfg.Net.IntraCluster = 1
	cfg.Net.InterClusterBase = 1
	cfg.Net.LinkLatency = 0
	cfg.Net.LinkBandwidth = 0
	cfg.Mem.L1Latency = 1
	cfg.Mem.L2Latency = 0
	cfg.Mem.MemLatency = 0
	return cfg
}

// interpStats runs the reference interpreter for dataflow-limit statistics.
func interpStats(prog *isa.Program) (interp.Stats, error) {
	m := interp.New(prog, 0)
	if _, err := m.Run(); err != nil {
		return interp.Stats{}, err
	}
	return m.Stats(), nil
}

// scaledMemory returns the kernel-scale memory hierarchy used by the
// memory-pressure experiments: a 2 KB L1 preserves the paper's ratio of L1
// capacity to working-set size.
func scaledMemory(n int) mem.SystemConfig {
	cfg := mem.DefaultSystemConfig(n)
	cfg.L1.SizeWords = 256
	return cfg
}
