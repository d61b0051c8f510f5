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
//	base, _ := prog.SimulateBaseline()         // out-of-order superscalar
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
	"wavescalar/internal/placement"
	"wavescalar/internal/trace"
	"wavescalar/internal/wavec"
	"wavescalar/internal/wavecache"
)

// CompileConfig selects the program Compile builds: harness.CompileOptions
// and the one dataflow binary to keep.
type CompileConfig struct {
	// Unroll is the loop-unrolling factor (0 or 1 disables).
	Unroll int
	// UseSelect lowers small pure if/else diamonds to φ SELECT
	// instructions instead of φ⁻¹ steers: the "select" binary rather than
	// the "steer" one.
	UseSelect bool
	// OptLevel selects the optimizer tier: 0 runs only the base pipeline
	// (constant folding, CSE, dead code), 1 adds the memory tier
	// (store-to-load forwarding, redundant-load elimination, scalar
	// replacement, dead-store elimination) — the CLIs' -O flag.
	OptLevel int
}

// DefaultCompileConfig is the experiment harness pipeline: unroll by 4,
// full optimization including the memory tier.
func DefaultCompileConfig() CompileConfig {
	d := harness.DefaultCompileOptions()
	return CompileConfig{Unroll: d.Unroll, OptLevel: d.OptLevel}
}

// Program is a compiled wsl program: the WaveScalar dataflow binary and,
// for a program compiled from source, everything harness.CompileSource
// built beside it — the linear baseline binary and the checksum both
// reference runs agreed on.
type Program struct {
	compiled *harness.Compiled // nil for ParseAssembly
	dataflow *isa.Program
}

// OptStats reports the memory-optimization tier's per-pass counters for
// the dataflow build (zero when compiled below opt level 1) and whether
// the tier ran.
func (p *Program) OptStats() (cfgir.MemOptStats, bool) {
	if p.compiled == nil {
		return cfgir.MemOptStats{}, false
	}
	return p.compiled.MemOpt, p.compiled.Opt >= 1
}

// ChainStats summarizes the dataflow binary's wave-ordered memory chains.
func (p *Program) ChainStats() wavec.ChainStats { return wavec.MeasureChains(p.dataflow) }

// Compile builds src through harness.CompileSource, the pipeline every
// other door uses — lex/parse/check, optional unrolling, IR construction
// and optimization, both backends, and the evaluator-against-emulator
// checksum and memory-image check — lowering only the dataflow binary cfg
// names. Its errors are CompileSource's, naming the source "wavescalar".
func Compile(src string, cfg CompileConfig) (*Program, error) {
	bin := "steer"
	if cfg.UseSelect {
		bin = "select"
	}
	c, err := harness.CompileSource("wavescalar", src, harness.CompileOptions{
		Unroll: cfg.Unroll, OptLevel: cfg.OptLevel, Binaries: []string{bin},
	})
	if err != nil {
		return nil, err
	}
	wp, err := c.Binary(bin)
	if err != nil {
		return nil, err
	}
	return &Program{compiled: c, dataflow: wp}, nil
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
	// InputQueue is the matching-table capacity before spills.
	InputQueue int
	// MemoryMode is "wave-ordered" (default), "serialized", "ideal", or
	// "spec" (speculative transactional wave-ordered memory).
	MemoryMode string
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
		InputQueue: sc.InputQueue,
		MemMode:    mm,
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

// SimulateBaseline runs the program on the out-of-order superscalar of the
// evaluation (harness.DefaultOoOConfig) and holds its value to the
// checksum the compile's reference runs agreed on, as the experiments do.
func (p *Program) SimulateBaseline() (BaselineResult, error) {
	if p.compiled == nil {
		return BaselineResult{}, ErrNoBaseline
	}
	res, err := harness.RunOoO(p.compiled, harness.DefaultOoOConfig())
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
