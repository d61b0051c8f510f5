package harness

import (
	"fmt"

	"wavescalar/internal/interp"
	"wavescalar/internal/isa"
	"wavescalar/internal/wavecache"
)

// EngineSetVersion names the current semantics of the engine table below.
// It is part of every corpus cell-cache key: bump it whenever an engine's
// observable behavior changes (new engine, simulator counter fix, compile
// pipeline change), and stale cached cells stop matching instead of
// silently polluting resumed sweeps. Being a source constant, the version
// is visible in git history alongside the change that required the bump.
const EngineSetVersion = "engines-v6"

// EngineRun is one engine's observation of a program: the final checksum
// every engine must agree on, the simulated cycle count for the timing
// engines (0 for the untimed interpreter), and a digest of the final memory
// image (wavecache.ImageDigest). A checksum is what the program chose to read back: a dead
// store reordered past another to the same address leaves it alone and
// changes the image.
type EngineRun struct {
	Value     int64
	Cycles    int64
	MemDigest uint64
}

// Engine is one execution engine of the differential suite.
type Engine struct {
	Name string
	Run  func(c *Compiled) (EngineRun, error)
}

// Engines is the single authoritative engine table: the dataflow
// interpreter on all three compiled binaries, the WaveCache timing simulator
// in all four memory modes — seven engines. The two reference engines, the
// AST evaluator and the linear emulator, are not rows: CompileSource has
// already run both on every program and agreed their results into
// Compiled.Checksum and Compiled.Image, which every row is held to. Nor is
// the out-of-order baseline: ooo.Run's value is the linear emulator's run
// of the same program (interp.TestDifferentialFuzz still holds it to the
// others on generated programs, and ooo_digests.txt pins its timing). The differential test, the FuzzDifferential target, and the
// waveexp corpus sweep all share this definition, so the engine list cannot
// drift between test and production.
func Engines(m MachineOptions) []Engine {
	waveEngine := func(mode wavecache.MemoryMode) func(c *Compiled) (EngineRun, error) {
		return func(c *Compiled) (EngineRun, error) {
			opt := m
			opt.MemMode = mode
			cfg, pol, err := opt.Build(c.Wave)
			if err != nil {
				return EngineRun{}, err
			}
			a := arenaPool.Get().(*wavecache.Arena)
			defer arenaPool.Put(a)
			res, err := a.Run(c.Wave, pol, cfg)
			return EngineRun{Value: res.Value, Cycles: res.Cycles, MemDigest: wavecache.ImageDigest(a.Memory())}, err
		}
	}
	interpEngine := func(prog func(c *Compiled) *isa.Program) func(c *Compiled) (EngineRun, error) {
		return func(c *Compiled) (EngineRun, error) {
			m := interp.New(prog(c), 0)
			v, err := m.Run()
			return EngineRun{Value: v, MemDigest: wavecache.ImageDigest(m.Memory())}, err
		}
	}
	return []Engine{
		{"interp-steer", interpEngine(func(c *Compiled) *isa.Program { return c.Wave })},
		{"interp-select", interpEngine(func(c *Compiled) *isa.Program { return c.WaveSel })},
		{"interp-rolled", interpEngine(func(c *Compiled) *isa.Program { return c.WaveNoUn })},
		{"wavecache-" + wavecache.MemOrdered.String(), waveEngine(wavecache.MemOrdered)},
		{"wavecache-" + wavecache.MemSerial.String(), waveEngine(wavecache.MemSerial)},
		{"wavecache-" + wavecache.MemIdeal.String(), waveEngine(wavecache.MemIdeal)},
		{"wavecache-" + wavecache.MemSpec.String(), waveEngine(wavecache.MemSpec)},
	}
}

// EngineNames lists the engine table's names (for cache keys and docs).
func EngineNames(m MachineOptions) []string {
	engines := Engines(m)
	out := make([]string, len(engines))
	for i, e := range engines {
		out[i] = e.Name
	}
	return out
}

// EngineResult is one engine's outcome on one program, in a form that
// serializes losslessly into the corpus cell cache (int64s round-trip
// exactly through encoding/json into typed fields).
type EngineResult struct {
	Engine    string `json:"engine"`
	Value     int64  `json:"value"`
	Cycles    int64  `json:"cycles,omitempty"`
	MemDigest uint64 `json:"mem_digest,omitempty"`
	Err       string `json:"err,omitempty"`
}

// DiffResult is a full cross-engine differential verdict for one program.
type DiffResult struct {
	Name    string
	Want    int64  // the compile-time checksum every engine must reproduce
	Image   uint64 // the compile-time memory-image digest (Compiled.Image)
	Results []EngineResult
}

// Mismatches lists the engines that failed, disagreed with Want, or left a
// memory image behind other than Image.
func (d *DiffResult) Mismatches() []string {
	var out []string
	for _, r := range d.Results {
		switch {
		case r.Err != "":
			out = append(out, fmt.Sprintf("%s: %s", r.Engine, r.Err))
		case r.Value != d.Want:
			out = append(out, fmt.Sprintf("%s: checksum %d, want %d", r.Engine, r.Value, d.Want))
		case r.MemDigest != d.Image:
			out = append(out, fmt.Sprintf("%s: memory image %016x, want %016x", r.Engine, r.MemDigest, d.Image))
		}
	}
	return out
}

// Pass reports whether every engine agreed.
func (d *DiffResult) Pass() bool { return len(d.Mismatches()) == 0 }

// RunDifferential executes a compiled program on every engine and
// collects the verdict. Engine errors are recorded, not returned: a
// corpus sweep must survive a single bad cell and report it.
func RunDifferential(c *Compiled, engines []Engine) *DiffResult {
	d := &DiffResult{Name: c.Name, Want: c.Checksum, Image: c.Image, Results: make([]EngineResult, len(engines))}
	for i, e := range engines {
		run, err := e.Run(c)
		d.Results[i] = EngineResult{Engine: e.Name, Value: run.Value, Cycles: run.Cycles, MemDigest: run.MemDigest}
		if err != nil {
			d.Results[i].Err = err.Error()
		}
	}
	return d
}
