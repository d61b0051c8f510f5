package harness

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

	"wavescalar/internal/fault"
	"wavescalar/internal/isa"
	"wavescalar/internal/mem"
	"wavescalar/internal/placement"
	"wavescalar/internal/trace"
	"wavescalar/internal/wavecache"
)

// This file is the one description of a simulated run: CompileOptions says
// which program is built, MachineOptions which WaveCache runs it. Every
// door — CLI flags, wavescalar.SimConfig, waved's request fields, the
// experiment cells — fills these two and shares their defaults, Validate
// and Key. DESIGN.md "Machine configuration" tabulates the fields.

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

// DefaultCompileOptions is the harness pipeline: unroll by 4, as the
// paper's Alpha toolchain would, with the memory-optimization tier on.
// (The golden-snapshot tests pin OptLevel 0 explicitly so the recorded
// pre-optimizer binaries replay bit-for-bit.)
func DefaultCompileOptions() CompileOptions { return CompileOptions{Unroll: 4, OptLevel: 1} }

// Validate rejects options the pipeline has no meaning for. There are no
// defaults to apply: a zero Unroll is "off", not "unset".
func (o CompileOptions) Validate() error {
	if o.Unroll < 0 {
		return fmt.Errorf("unroll factor %d is negative", o.Unroll)
	}
	if o.OptLevel < 0 || o.OptLevel > 1 {
		return fmt.Errorf("optimization level %d out of range (0 .. 1)", o.OptLevel)
	}
	for _, b := range o.Binaries {
		if !slices.Contains(BinaryNames, b) {
			return fmt.Errorf("unknown binary %q (%s)", b, strings.Join(BinaryNames, ", "))
		}
	}
	return nil
}

// Key canonically encodes the fields that decide what each compiled binary
// is. Binaries only picks which of them are built, and Workers and Ctx how
// the work is scheduled, so they are left out.
func (o CompileOptions) Key() string {
	return fmt.Sprintf("unroll=%d opt=%d", max(o.Unroll, 1), o.OptLevel)
}

// builds reports whether the options ask for the named binary.
func (o CompileOptions) builds(name string) bool {
	return len(o.Binaries) == 0 || slices.Contains(o.Binaries, name)
}

// ctx returns the options' context, defaulting to Background.
func (o CompileOptions) ctx() context.Context {
	return cmp.Or(o.Ctx, context.Background())
}

const (
	// placementSeed seeds the randomized placement policies (random,
	// packed-random) and E14's feedback hill-climb: one constant for every
	// door, so a cell's result is a function of its options alone.
	placementSeed = 12345
	// maxCount bounds Density, PEStore and InputQueue: E6's "infinite" queue
	// is exactly this, and no placement arithmetic on it can overflow.
	maxCount = 1 << 30
)

// MachineOptions is the simulated-hardware configuration of one WaveCache
// run. A zero GridW, GridH, Density, PEStore, InputQueue or Policy selects
// DefaultMachineOptions' value (see Validate).
type MachineOptions struct {
	GridW, GridH int
	// Density is the placement packing density (instruction homes per PE).
	// The published machine packs 64, sized for SPEC-scale working sets;
	// the kernels here are ~100x smaller, so the default preserves the
	// paper's ratio of packed instructions to working-set size.
	Density int
	// PEStore is the per-PE instruction store: homes beyond it swap.
	PEStore int
	// InputQueue is the PE matching-table capacity before spills.
	InputQueue int
	// Policy names the placement policy.
	Policy string
	// MemMode is the memory ordering mode (the CLI -mem flag). The zero
	// value is the default wave-ordered mode; experiments that sweep modes
	// themselves (E4, E15) set it per cell.
	MemMode wavecache.MemoryMode
	// L1Words overrides the per-cluster L1 size in 64-bit words (0 = the
	// published hierarchy's).
	L1Words int64
	// Fuel bounds fired instructions (0 = the simulator's default budget).
	Fuel int64
	// MaxCycles bounds each WaveCache cell's simulated time (0 = no
	// bound); corpus sweeps over generated programs set it so a
	// pathological cell aborts with a watchdog error instead of hanging
	// the sweep.
	MaxCycles int64
	// Faults is the fault-injection specification in fault.ParseSpec form
	// (empty = a perfect machine); FaultSeed drives every fault decision,
	// so the same (spec, seed) pair reproduces a faulty run bit-for-bit.
	Faults    string
	FaultSeed uint64
	// Tracer, when non-nil, records the run's structured trace. It cannot
	// change a Result, and belongs to one run: never share one across
	// concurrent cells.
	Tracer *trace.Tracer
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
	// Ctx, when non-nil, cancels a sweep cooperatively: the worker pool
	// stops claiming cells once Ctx is done, and every WaveCache cell
	// inherits Ctx.Done() as its wavecache.Config.Cancel channel, so a
	// long-running cell aborts mid-simulation with a structured
	// cancellation FaultError instead of running to completion. nil — the
	// default — is never-cancelled and results-identical to the pre-Ctx
	// harness.
	Ctx context.Context
}

// DefaultMachineOptions is the tuned kernel-scale configuration, and the
// one home of the machine defaults.
func DefaultMachineOptions() MachineOptions {
	return MachineOptions{GridW: 4, GridH: 4, Density: 16, PEStore: 64, InputQueue: 64,
		Policy: "dynamic-depth-first-snake"}
}

// Validate reports the first field no WaveCache can be built from, after
// the defaults are applied, with the error text every door shows.
func (m MachineOptions) Validate() error {
	_, _, err := m.check()
	return err
}

// resolve returns m with every default applied, and its parsed fault spec.
func (m MachineOptions) resolve() (MachineOptions, fault.Config, error) {
	d := DefaultMachineOptions()
	m.GridW = cmp.Or(m.GridW, d.GridW)
	m.GridH = cmp.Or(m.GridH, d.GridH)
	m.Density = cmp.Or(m.Density, d.Density)
	m.PEStore = cmp.Or(m.PEStore, d.PEStore)
	m.InputQueue = cmp.Or(m.InputQueue, d.InputQueue)
	m.Policy = cmp.Or(m.Policy, d.Policy)
	fc, err := fault.ParseSpec(m.Faults)
	fc.Seed = m.FaultSeed
	return m, fc, err
}

// check is Validate, returning also what resolve worked out.
func (m MachineOptions) check() (MachineOptions, fault.Config, error) {
	m, fc, err := m.resolve()
	if err != nil {
		return m, fc, err
	}
	if err := wavecache.CheckGrid(m.GridW, m.GridH); err != nil {
		return m, fc, err
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"density", m.Density}, {"PE store", m.PEStore}, {"input queue", m.InputQueue}} {
		if f.v < 1 || f.v > maxCount {
			return m, fc, fmt.Errorf("%s %d out of range (1 .. %d)", f.name, f.v, maxCount)
		}
	}
	if min(m.MaxCycles, m.Fuel) < 0 {
		return m, fc, fmt.Errorf("max cycles %d, fuel %d: a bound cannot be negative (0 = none)", m.MaxCycles, m.Fuel)
	}
	if m.L1Words != 0 {
		hier := mem.DefaultSystemConfig(1)
		hier.L1.SizeWords = m.L1Words
		if err := hier.L1.Validate(); err != nil {
			return m, fc, err
		}
		if m.L1Words > hier.L2.SizeWords {
			return m, fc, fmt.Errorf("L1 of %d words is larger than the %d-word L2", m.L1Words, hier.L2.SizeWords)
		}
	}
	if !slices.Contains(placement.Names(), m.Policy) {
		return m, fc, fmt.Errorf("unknown placement policy %q (%s)", m.Policy, strings.Join(placement.Names(), ", "))
	}
	if _, err := wavecache.ParseMemoryMode(m.MemMode.String()); err != nil {
		return m, fc, err
	}
	if npe := placement.DefaultMachine(m.GridW, m.GridH).NumPEs(); fc.KillCycle > 0 && (fc.KillPE < 0 || fc.KillPE >= npe) {
		return m, fc, fmt.Errorf("fault: kill PE %d outside the machine (0 .. %d)", fc.KillPE, npe-1)
	}
	return m, fc, nil
}

// Key canonically encodes every field that can change a wavecache.Result,
// with the defaults applied and the fault spec in its parsed form, so two
// spellings of one machine share a key. Tracer, Workers, Metrics and Ctx
// cannot change a Result and are left out.
func (m MachineOptions) Key() string {
	m, fc, _ := m.resolve()
	return fmt.Sprintf("grid=%dx%d density=%d pestore=%d queue=%d policy=%q mem=%s l1words=%d fuel=%d maxcycles=%d faults=%s faultseed=%d",
		m.GridW, m.GridH, m.Density, m.PEStore, m.InputQueue, m.Policy, m.MemMode,
		m.L1Words, m.Fuel, m.MaxCycles, fc, m.FaultSeed)
}

// Build validates the options and returns the simulator configuration and
// a fresh placement policy for prog: what wavecache.Run (or RunWave) needs
// besides the program.
func (m MachineOptions) Build(prog *isa.Program) (wavecache.Config, placement.Policy, error) {
	m, fc, err := m.check()
	if err != nil {
		return wavecache.Config{}, nil, err
	}
	cfg := m.waveConfig(fc)
	pol, err := placement.New(m.Policy, cfg.Machine, prog, placementSeed)
	if err != nil {
		return wavecache.Config{}, nil, fmt.Errorf("harness: policy %q: %w", m.Policy, err)
	}
	return cfg, pol, nil
}

// waveConfig lowers resolved options and their parsed fault spec.
func (m MachineOptions) waveConfig(fc fault.Config) wavecache.Config {
	cfg := wavecache.DefaultConfig(m.GridW, m.GridH)
	cfg.Machine.Capacity = m.Density
	cfg.PEStore = m.PEStore
	cfg.InputQueue = m.InputQueue
	cfg.MemMode = m.MemMode
	if m.L1Words != 0 {
		cfg.Mem.L1.SizeWords = m.L1Words
	}
	cfg.Fuel = m.Fuel
	cfg.MaxCycles = m.MaxCycles
	cfg.Faults = fc
	// Placement and simulator must agree on the defect map, so it is
	// installed on the machine before the policy is constructed.
	cfg.Machine.Defective = fault.DefectMap(fc, cfg.Machine.NumPEs())
	cfg.Tracer = m.Tracer
	cfg.Metrics = m.Metrics
	if m.Ctx != nil {
		cfg.Cancel = m.Ctx.Done()
	}
	return cfg
}

// WaveConfig is Build's configuration alone, for a caller that sets
// parameters MachineOptions does not carry (network latencies, swap
// penalty, speculation scope) and builds its policy with NewPolicy. Options
// that do not validate are reported there, not here.
func (m MachineOptions) WaveConfig() wavecache.Config {
	m, fc, _ := m.resolve()
	return m.waveConfig(fc)
}

// NewPolicy is Build's placement policy alone. An unknown policy name or
// an unusable machine is reported as an error (surfaced through the
// experiment and CLI exit paths), not a panic.
func (m MachineOptions) NewPolicy(p *isa.Program) (placement.Policy, error) {
	_, pol, err := m.Build(p)
	return pol, err
}

// ctx returns the options' context, defaulting to Background.
func (m MachineOptions) ctx() context.Context {
	return cmp.Or(m.Ctx, context.Background())
}
