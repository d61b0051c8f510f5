// Package wavescalar is the public API of this repository: a from-scratch
// implementation of the WaveScalar dataflow architecture (MICRO 2003) — the
// tagged-token dataflow ISA with wave-ordered memory, a compiler targeting
// it, the WaveCache tiled microarchitecture simulator, and an out-of-order
// superscalar baseline for comparison.
//
// Quick start:
//
//	prog, err := wavescalar.Compile(src, wavescalar.DefaultCompileConfig())
//	value, _ := prog.Interpret()               // ideal dataflow machine
//	res, _ := prog.Simulate(wavescalar.DefaultSimConfig())   // WaveCache
//	base, _ := prog.SimulateBaseline(wavescalar.DefaultBaselineConfig())
//	fmt.Println(res.Cycles, base.Cycles)
//
// The experiment harness that regenerates the paper's evaluation lives in
// cmd/waveexp; the language reference is in internal/lang's package
// documentation.
package wavescalar

import (
	"errors"
	"fmt"

	"wavescalar/internal/asm"
	"wavescalar/internal/cfgir"
	"wavescalar/internal/fault"
	"wavescalar/internal/harness"
	"wavescalar/internal/interp"
	"wavescalar/internal/isa"
	"wavescalar/internal/linear"
	"wavescalar/internal/ooo"
	"wavescalar/internal/placement"
	"wavescalar/internal/trace"
	"wavescalar/internal/wavec"
	"wavescalar/internal/wavecache"
)

// CompileConfig controls the compilation pipeline.
type CompileConfig struct {
	// Unroll is the loop-unrolling factor (0 or 1 disables).
	Unroll int
	// UseSelect lowers small pure if/else diamonds to φ SELECT
	// instructions instead of φ⁻¹ steers.
	UseSelect bool
	// Optimize enables the IR optimizer (constant folding, CSE, DCE).
	Optimize bool
	// OptLevel selects the optimizer tier when Optimize is set: 0 runs
	// only the base pipeline, 1 adds the memory tier (store-to-load
	// forwarding, redundant-load elimination, scalar replacement,
	// dead-store elimination) — the CLIs' -O flag.
	OptLevel int
}

// DefaultCompileConfig mirrors the experiment harness pipeline: unroll by
// 4, full optimization including the memory tier.
func DefaultCompileConfig() CompileConfig {
	return CompileConfig{Unroll: 4, Optimize: true, OptLevel: 1}
}

// Program is a compiled wsl program, carrying both the WaveScalar dataflow
// binary and the linear baseline binary.
type Program struct {
	Source   string
	dataflow *isa.Program
	linear   *linear.Program
	memOpt   cfgir.MemOptStats
	optLevel int
}

// OptStats reports the memory-optimization tier's per-pass counters for
// the dataflow build (zero when compiled below opt level 1) and whether
// the tier ran.
func (p *Program) OptStats() (cfgir.MemOptStats, bool) {
	return p.memOpt, p.optLevel >= 1
}

// ChainStats summarizes the dataflow binary's wave-ordered memory chains.
func (p *Program) ChainStats() wavec.ChainStats { return wavec.MeasureChains(p.dataflow) }

// Compile runs the full pipeline: lex/parse/check, optional unrolling, IR
// construction and optimization, then both backends.
func Compile(src string, cfg CompileConfig) (*Program, error) {
	if err := (harness.CompileOptions{Unroll: cfg.Unroll, OptLevel: cfg.OptLevel}).Validate(); err != nil {
		return nil, err
	}
	lvl := cfgir.OptNone
	if cfg.Optimize {
		lvl = cfg.OptLevel
	}
	ir, memOpt, _, err := cfgir.FromSource(src, cfg.Unroll, lvl)
	if err != nil {
		return nil, err
	}
	lp, err := linear.Compile(ir)
	if err != nil {
		return nil, err
	}
	// linear.Compile only reads the IR, so the dataflow backend, which
	// consumes its input, can have the same one.
	wp, err := wavec.Compile(ir, wavec.Options{IfConvert: cfg.UseSelect})
	if err != nil {
		return nil, err
	}
	return &Program{Source: src, dataflow: wp, linear: lp, memOpt: memOpt, optLevel: max(lvl, 0)}, nil
}

// Disassemble renders the WaveScalar dataflow binary as assembly text.
func (p *Program) Disassemble() string { return asm.Print(p.dataflow) }

// ExportDot renders a function's dataflow graph in GraphViz format (pipe
// through `dot -Tsvg`). The empty name selects the entry function.
func (p *Program) ExportDot(function string) (string, error) {
	fn := p.dataflow.Entry
	if function != "" {
		found := isa.NoFunc
		for i := range p.dataflow.Funcs {
			if p.dataflow.Funcs[i].Name == function {
				found = isa.FuncID(i)
				break
			}
		}
		if found == isa.NoFunc {
			return "", fmt.Errorf("wavescalar: no function %q", function)
		}
		fn = found
	}
	return asm.Dot(p.dataflow, fn), nil
}

// StaticInstructions returns the dataflow binary's instruction count.
func (p *Program) StaticInstructions() int { return p.dataflow.NumInstrs() }

// InterpretResult reports an ideal-dataflow-machine run.
type InterpretResult struct {
	Value        int64
	Fired        uint64 // dynamic dataflow instructions
	Tokens       uint64
	WaveAdvances uint64
	Steers       uint64
	MemoryOps    uint64
	// MaxParallelism is the high-water mark of simultaneously in-flight
	// tokens.
	MaxParallelism int
}

// Interpret executes the program on the reference tagged-token dataflow
// interpreter (unbounded PEs, unit latency).
func (p *Program) Interpret() (InterpretResult, error) { return p.InterpretWithFuel(0) }

// InterpretWithFuel is Interpret under a step budget: a runaway or
// deadlocked program terminates with an error carrying the interpreter's
// diagnostic state dump instead of running forever (0 = default budget).
func (p *Program) InterpretWithFuel(fuel int64) (InterpretResult, error) {
	m := interp.New(p.dataflow, fuel)
	v, err := m.Run()
	if err != nil {
		if errors.Is(err, interp.ErrFuel) {
			// Budget exhaustion is the interpreter's watchdog: classify it
			// like the simulators' so callers (and CLI exit codes) see one
			// fault taxonomy. The interpreter has no cycles; fired
			// instructions are its time axis.
			err = &fault.FaultError{
				Kind:   fault.KindWatchdog,
				PE:     -1,
				Cycle:  int64(m.Stats().Fired),
				Detail: err.Error(),
			}
		}
		return InterpretResult{}, err
	}
	st := m.Stats()
	return InterpretResult{
		Value:          v,
		Fired:          st.Fired,
		Tokens:         st.Tokens,
		WaveAdvances:   st.WaveAdvance,
		Steers:         st.Steers,
		MemoryOps:      st.Loads + st.Stores,
		MaxParallelism: m.MaxQueue(),
	}, nil
}

// SimConfig parameterizes the WaveCache simulation. Zero values select the
// published processor parameters scaled for kernel workloads; DESIGN.md
// "Machine configuration" lists every field's default and accepted range.
type SimConfig struct {
	// GridW x GridH clusters.
	GridW, GridH int
	// Placement policy name (see PlacementPolicies).
	Placement string
	// Density is the number of instruction homes packed per PE.
	Density int
	// PEStore is the per-PE instruction store size.
	PEStore int
	// InputQueue is the matching-table capacity before spills.
	InputQueue int
	// MemoryMode is "wave-ordered" (default), "serialized", "ideal", or
	// "spec" (speculative transactional wave-ordered memory).
	MemoryMode string
	// L1Words overrides the per-cluster L1 size in 64-bit words.
	L1Words int64
	// Fuel bounds fired instructions (0 = default).
	Fuel int64
	// MaxCycles bounds simulated time; exceeding it aborts with the
	// watchdog's diagnostic dump (0 = unbounded).
	MaxCycles int64
	// Faults is the fault-injection specification, comma-separated
	// key=value pairs: defect, drop, delay, memloss (rates in [0,1]),
	// kill=PE@CYCLE, retries=N, timeout=CYCLES, delaycycles=CYCLES.
	// Empty disables injection.
	Faults string
	// FaultSeed drives every fault decision; the same (seed, spec) pair
	// reproduces a faulty run bit-for-bit.
	FaultSeed uint64
	// Tracer, when non-nil, records this run's per-cycle series and (if
	// the tracer's Config enables them) a structured event stream, and is
	// stamped with the run's trace metrics when it completes (read them
	// with Tracer.Metrics). A nil Tracer leaves the simulation
	// bit-identical to an untraced run; a Tracer must not be shared across
	// concurrent Simulate calls.
	Tracer *trace.Tracer
}

// DefaultSimConfig returns the tuned kernel-scale configuration.
func DefaultSimConfig() SimConfig { return SimConfig{} }

// PlacementPolicies lists the available placement policy names.
func PlacementPolicies() []string { return placement.Names() }

// SimResult reports a WaveCache simulation.
type SimResult struct {
	Value     int64
	Cycles    int64
	Fired     uint64
	IPC       float64
	Tokens    uint64
	Swaps     uint64
	Overflows uint64
	PEsUsed   int

	L1MissRate      float64
	CoherenceMoves  uint64
	NetworkMessages uint64
	MemoryOps       uint64

	// Fault injection and recovery (all zero without a Faults spec).
	DefectivePEs    int
	PEKills         uint64
	MigratedInstrs  uint64
	MessageDrops    uint64 // lost attempts (operand network + store buffer)
	MessageRetries  uint64 // successful retransmits
	RetryWaitCycles uint64 // cycles spent in ack timeouts before retransmits
	DelayedMessages uint64
}

// Simulate runs the program on the cycle-level WaveCache simulator.
func (p *Program) Simulate(sc SimConfig) (SimResult, error) {
	mm, err := wavecache.ParseMemoryMode(sc.MemoryMode)
	if err != nil {
		return SimResult{}, err
	}
	cfg, pol, err := harness.MachineOptions{
		GridW: sc.GridW, GridH: sc.GridH,
		Policy:     sc.Placement,
		Density:    sc.Density,
		PEStore:    sc.PEStore,
		InputQueue: sc.InputQueue,
		MemMode:    mm,
		L1Words:    sc.L1Words,
		Fuel:       sc.Fuel,
		MaxCycles:  sc.MaxCycles,
		Faults:     sc.Faults,
		FaultSeed:  sc.FaultSeed,
		Tracer:     sc.Tracer,
	}.Build(p.dataflow)
	if err != nil {
		return SimResult{}, err
	}
	res, err := wavecache.Run(p.dataflow, pol, cfg)
	if err != nil {
		return SimResult{}, err
	}
	op, sb := res.Faults.Operand, res.Faults.StoreBuffer
	out := SimResult{
		Value:           res.Value,
		Cycles:          res.Cycles,
		Fired:           res.Fired,
		IPC:             res.IPC,
		Tokens:          res.Tokens,
		Swaps:           res.Swaps,
		Overflows:       res.Overflows,
		PEsUsed:         res.PEsUsed,
		CoherenceMoves:  res.Mem.Transfers + res.Mem.Invals,
		NetworkMessages: res.Net.Messages,
		MemoryOps:       res.Order.Loads + res.Order.Stores,
		DefectivePEs:    res.Faults.DefectivePEs,
		PEKills:         res.Faults.PEKills,
		MigratedInstrs:  res.Faults.MigratedInstrs,
		MessageDrops:    op.Drops + sb.Drops,
		MessageRetries:  op.Retries + sb.Retries,
		RetryWaitCycles: op.RetryWait + sb.RetryWait,
		DelayedMessages: op.Delayed + sb.Delayed,
	}
	if res.Mem.Accesses > 0 {
		out.L1MissRate = float64(res.Mem.L1Misses) / float64(res.Mem.Accesses)
	}
	return out, nil
}

// BaselineConfig parameterizes the out-of-order superscalar baseline.
type BaselineConfig struct {
	// Width sets fetch/issue/commit width (default 8).
	Width int
	// WindowSize is the ROB size (default 256).
	WindowSize int
	// L1Words overrides the L1 size.
	L1Words int64
	// Fuel bounds dynamic instructions (0 = default).
	Fuel int64
}

// DefaultBaselineConfig is the aggressive superscalar of the evaluation.
func DefaultBaselineConfig() BaselineConfig { return BaselineConfig{} }

// BaselineResult reports a superscalar simulation.
type BaselineResult struct {
	Value       int64
	Cycles      int64
	Instrs      uint64
	IPC         float64
	Branches    uint64
	Mispredicts uint64
	L1MissRate  float64
}

// SimulateBaseline runs the program on the out-of-order superscalar model.
func (p *Program) SimulateBaseline(bc BaselineConfig) (BaselineResult, error) {
	if p.linear == nil {
		return BaselineResult{}, ErrNoBaseline
	}
	cfg := ooo.DefaultConfig()
	if bc.Width != 0 {
		cfg.FetchWidth, cfg.IssueWidth, cfg.CommitWidth = bc.Width, bc.Width, bc.Width
	}
	if bc.WindowSize != 0 {
		cfg.ROBSize = bc.WindowSize
	}
	if bc.L1Words != 0 {
		cfg.Mem.L1.SizeWords = bc.L1Words
	}
	cfg.Fuel = bc.Fuel
	res, err := ooo.Run(p.linear, cfg)
	if err != nil {
		return BaselineResult{}, err
	}
	out := BaselineResult{
		Value:       res.Value,
		Cycles:      res.Cycles,
		Instrs:      res.Instrs,
		IPC:         res.IPC,
		Branches:    res.Branches,
		Mispredicts: res.Mispredicts,
	}
	if res.Mem.Accesses > 0 {
		out.L1MissRate = float64(res.Mem.L1Misses) / float64(res.Mem.Accesses)
	}
	return out, nil
}

// ParseAssembly loads a hand-written WaveScalar assembly program. The
// linear baseline is unavailable for such programs (Simulate and Interpret
// work; SimulateBaseline returns an error).
func ParseAssembly(text string) (*Program, error) {
	p, err := asm.Parse(text)
	if err != nil {
		return nil, err
	}
	return &Program{dataflow: p}, nil
}

// ErrNoBaseline is returned by SimulateBaseline for programs loaded from
// assembly.
var ErrNoBaseline = fmt.Errorf("wavescalar: program has no linear baseline binary")
