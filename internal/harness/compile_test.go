package harness

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"wavescalar/internal/asm"
	"wavescalar/internal/cfgir"
	"wavescalar/internal/isa"
	"wavescalar/internal/lang"
	"wavescalar/internal/linear"
	"wavescalar/internal/parallel"
	"wavescalar/internal/testprogs"
	"wavescalar/internal/wavec"
	"wavescalar/internal/wavecache"
	"wavescalar/internal/workloads"
)

// compileSourceFourBuilds is CompileSource as it was before the IR was
// shared: parse → unroll → build → compact → optimize → memopt from
// scratch for each of the steer, linear, select and rolled binaries,
// spelled out stage by stage (not through cfgir.FromSource) so that it
// stays an independent reference.
func compileSourceFourBuilds(name, src string, opts CompileOptions) (*Compiled, error) {
	c := &Compiled{Name: name, Src: src, Opt: opts.OptLevel}
	buildIR := func(unroll int) (*cfgir.Program, cfgir.MemOptStats, error) {
		var st cfgir.MemOptStats
		f, err := lang.ParseAndCheck(src)
		if err != nil {
			return nil, st, err
		}
		if unroll > 1 {
			lang.Unroll(f, unroll)
		}
		p, err := cfgir.Build(f)
		if err != nil {
			return nil, st, err
		}
		for _, fn := range p.Funcs {
			fn.Compact()
		}
		p.Optimize()
		if opts.OptLevel >= 1 {
			st = p.OptimizeMemory()
		}
		return p, st, nil
	}
	build := func(unroll int, waveOpts wavec.Options) (*isa.Program, cfgir.MemOptStats, error) {
		p, st, err := buildIR(unroll)
		if err != nil {
			return nil, st, err
		}
		wp, err := wavec.Compile(p, waveOpts)
		return wp, st, err
	}

	var err error
	if c.Wave, c.MemOpt, err = build(opts.Unroll, wavec.Options{}); err != nil {
		return nil, err
	}
	c.Chains = wavec.MeasureChains(c.Wave)
	p, _, err := buildIR(opts.Unroll)
	if err != nil {
		return nil, err
	}
	if c.Linear, err = linear.Compile(p); err != nil {
		return nil, err
	}
	if c.WaveSel, _, err = build(opts.Unroll, wavec.Options{IfConvert: true}); err != nil {
		return nil, err
	}
	if c.WaveNoUn, _, err = build(1, wavec.Options{}); err != nil {
		return nil, err
	}
	em := linear.NewEmulator(c.Linear, 0)
	if c.Checksum, err = em.Run(); err != nil {
		return nil, err
	}
	c.UsefulInstrs = em.Instrs
	c.Image = wavecache.ImageDigest(em.Memory())
	return c, nil
}

// compileCorpus names the ten kernels plus n generated programs
// (workloads.ByName resolves both kinds).
func compileCorpus(n int) []string {
	names := workloads.Names()
	for _, spec := range testprogs.CorpusSpecs(n, 1) {
		names = append(names, spec.Name())
	}
	return names
}

// TestCompileSourceMatchesFourBuilds: sharing one IR per unroll factor
// must not change a byte of any binary, at either optimizer tier, with
// unrolling on or off.
func TestCompileSourceMatchesFourBuilds(t *testing.T) {
	progs := compileCorpus(50)
	if testing.Short() {
		progs = progs[:15]
	}
	reused := 0
	for _, name := range progs {
		src := workloads.ByName(name).Src
		for _, opts := range []CompileOptions{
			{Unroll: 4, OptLevel: 0},
			{Unroll: 4, OptLevel: 1},
			{Unroll: 1, OptLevel: 1},
		} {
			id := fmt.Sprintf("%s unroll %d O%d", name, opts.Unroll, opts.OptLevel)
			got, err := CompileSource(name, src, opts)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			want, err := compileSourceFourBuilds(name, src, opts)
			if err != nil {
				t.Fatalf("%s: reference: %v", id, err)
			}
			for _, bin := range []struct {
				name      string
				got, want *isa.Program
			}{
				{"Wave", got.Wave, want.Wave},
				{"WaveSel", got.WaveSel, want.WaveSel},
				{"WaveNoUn", got.WaveNoUn, want.WaveNoUn},
			} {
				if asm.Print(bin.got) != asm.Print(bin.want) {
					t.Errorf("%s: %s prints differently from the four-build pipeline", id, bin.name)
				}
			}
			if !reflect.DeepEqual(got.Linear, want.Linear) {
				t.Errorf("%s: linear program differs from the four-build pipeline", id)
			}
			if got.MemOpt != want.MemOpt || got.Chains != want.Chains ||
				got.Checksum != want.Checksum || got.Image != want.Image || got.UsefulInstrs != want.UsefulInstrs {
				t.Errorf("%s: got MemOpt %+v Chains %+v checksum %d image %016x useful %d,\nwant MemOpt %+v Chains %+v checksum %d image %016x useful %d", id,
					got.MemOpt, got.Chains, got.Checksum, got.Image, got.UsefulInstrs,
					want.MemOpt, want.Chains, want.Checksum, want.Image, want.UsefulInstrs)
			}
			if got.WaveNoUn == got.Wave {
				reused++
			} else if opts.Unroll <= 1 {
				t.Errorf("%s: a second IR was built with unrolling off", id)
			}
		}
	}
	if reused == 0 || reused == 3*len(progs) {
		t.Errorf("rolled binary reused the steer binary in %d of %d compilations; the test needs both cases", reused, 3*len(progs))
	}
}

// TestCompileSourceBinarySubsets: asking for one dataflow binary yields
// the program the full build puts in that field, byte for byte, beside the
// same linear program, checksum, work count and optimizer counters; the
// binaries not asked for are nil, and Binary says so instead of handing
// out a nil program. Unroll 1 is the case where rolled is the steer build.
func TestCompileSourceBinarySubsets(t *testing.T) {
	progs := compileCorpus(30)
	if testing.Short() {
		progs = progs[:15]
	}
	for _, name := range progs {
		src := workloads.ByName(name).Src
		for _, opts := range []CompileOptions{
			{Unroll: 4, OptLevel: 0},
			{Unroll: 4, OptLevel: 1},
			{Unroll: 1, OptLevel: 1},
		} {
			full, err := CompileSource(name, src, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, bin := range BinaryNames {
				id := fmt.Sprintf("%s unroll %d O%d, %s only", name, opts.Unroll, opts.OptLevel, bin)
				opts.Binaries = []string{bin}
				got, err := CompileSource(name, src, opts)
				if err != nil {
					t.Fatalf("%s: %v", id, err)
				}
				for _, other := range BinaryNames {
					p, err := got.Binary(other)
					want, _ := full.Binary(other)
					switch {
					case other != bin:
						if p != nil || err == nil {
							t.Errorf("%s: Binary(%q) = %v, %v; want nil and an error", id, other, p, err)
						}
					case err != nil:
						t.Errorf("%s: %v", id, err)
					case asm.Print(p) != asm.Print(want):
						t.Errorf("%s: prints differently from the full build's", id)
					}
				}
				if (got.Wave != nil) != (bin == "steer") || (got.WaveSel != nil) != (bin == "select") ||
					(got.WaveNoUn != nil) != (bin == "rolled") {
					t.Errorf("%s: built Wave=%v WaveSel=%v WaveNoUn=%v", id, got.Wave != nil, got.WaveSel != nil, got.WaveNoUn != nil)
				}
				if !reflect.DeepEqual(got.Linear, full.Linear) {
					t.Errorf("%s: linear program differs from the full build's", id)
				}
				if got.Checksum != full.Checksum || got.UsefulInstrs != full.UsefulInstrs || got.MemOpt != full.MemOpt {
					t.Errorf("%s: got checksum %d useful %d MemOpt %+v,\nfull build checksum %d useful %d MemOpt %+v", id,
						got.Checksum, got.UsefulInstrs, got.MemOpt, full.Checksum, full.UsefulInstrs, full.MemOpt)
				}
				if bin == "steer" && got.Chains != full.Chains {
					t.Errorf("%s: Chains %+v, full build %+v", id, got.Chains, full.Chains)
				}
			}
		}
	}

	src := workloads.ByName("fft").Src
	if _, err := CompileSource("fft", src, CompileOptions{Unroll: 4, Binaries: []string{"steer", "phi"}}); err == nil ||
		!strings.Contains(err.Error(), `unknown binary "phi"`) {
		t.Errorf("unknown binary name: err = %v", err)
	}
	two, err := CompileSource("fft", src, CompileOptions{Unroll: 4, Binaries: []string{"select", "rolled"}})
	if err != nil {
		t.Fatal(err)
	}
	if two.Wave != nil || two.WaveSel == nil || two.WaveNoUn == nil {
		t.Errorf("select+rolled built Wave=%v WaveSel=%v WaveNoUn=%v", two.Wave != nil, two.WaveSel != nil, two.WaveNoUn != nil)
	}
	if _, err := two.Binary("phi"); err == nil {
		t.Error("Binary of an unknown name returned no error")
	}
}

// TestCompileSourceErrorsNameProgramAndStage: whichever stage refuses a
// program, a sweep over hundreds of them has to be able to say which
// program it was.
func TestCompileSourceErrorsNameProgramAndStage(t *testing.T) {
	for _, tc := range []struct {
		name, src, prefix string
	}{
		{"syntax", "func main() { return 1 }", "syntax: frontend: "},
		{"undeclared", "func main() { return y; }", "undeclared: frontend: "},
		// A data segment past isa.MaxMemWords is refused, with its
		// position, before any engine allocates it.
		{"huge", "global a[999999999999999];\nfunc main() { a[0] = 1; return a[0]; }", "huge: frontend: 1:1: "},
		// Past the end of memory: the linear emulator traps first.
		{"trap", "global a[4];\nfunc main() { var i = 2; a[i + 5] = 1; return a[0]; }", "trap: linear emulator: "},
		// b[-1] is a valid word of a, so the emulator's flat-memory check
		// passes and only the evaluator, which checks each array's bounds,
		// traps.
		{"oob", "global a[4];\nglobal b[4];\nfunc main() { var i = 0; b[i - 1] = 7; return a[3]; }", "oob: evaluator: "},
	} {
		_, err := CompileSource(tc.name, tc.src, DefaultCompileOptions())
		if err == nil {
			t.Errorf("%s: compiled without error", tc.name)
			continue
		}
		if !strings.HasPrefix(err.Error(), tc.prefix) {
			t.Errorf("%s: error %q does not start with %q", tc.name, err, tc.prefix)
		}
	}
}

// TestCompileSourceErrorPrecedenceAcrossStages: the two reference runs and
// the lowerings overlap, so two of them can fail in either order; the error
// reported is the one the documented order names, every time. (A build or
// lowering error is not in the table: no source that passes the checker
// makes one.)
func TestCompileSourceErrorPrecedenceAcrossStages(t *testing.T) {
	// Both engines trap: the emulator on the flat address, the evaluator on
	// the array bound, after a loop the two finish at different times.
	const bothTrap = "global a[4];\nfunc main() { var i = 0; while i < 300 { i = i + 1; } a[i] = 1; return a[0]; }"
	// Only the evaluator traps (b[-1] is a word of a), after the same loop.
	const evalTrap = "global a[4];\nglobal b[4];\nfunc main() { var i = 0; while i < 300 { i = i + 1; } b[i - 301] = 7; return a[3]; }"
	for _, tc := range []struct {
		name, src         string
		evalFuel, emuFuel int64
		prefix            string
		is                error
	}{
		{"emulator trap, evaluator trap", bothTrap, 0, 0, "linear emulator: linear: main: store address", nil},
		{"emulator out of fuel, evaluator trap", evalTrap, 0, 100, "linear emulator: ", linear.ErrFuel},
		{"emulator trap, evaluator out of fuel", bothTrap, 100, 0, "evaluator: ", lang.ErrOutOfFuel},
		{"emulator out of fuel, evaluator out of fuel", bothTrap, 100, 100, "evaluator: ", lang.ErrOutOfFuel},
	} {
		for rep := 0; rep < 25; rep++ {
			_, _, err := compileSource("p", tc.src, DefaultCompileOptions(), tc.evalFuel, tc.emuFuel)
			if err == nil || !strings.HasPrefix(err.Error(), "p: "+tc.prefix) || (tc.is != nil && !errors.Is(err, tc.is)) {
				t.Errorf("%s (run %d): err = %v, want prefix %q", tc.name, rep, err, "p: "+tc.prefix)
				break
			}
		}
	}
}

// TestCompileSourceSharesSelectWhenNothingConverts: φ versus φ⁻¹ only
// exists where a small pure diamond does. Where if-conversion converts
// nothing WaveSel is the steer binary itself — the rule WaveNoUn follows
// for unrolling — and where it converts something WaveSel is what lowering
// a fresh IR with Options.IfConvert gives.
func TestCompileSourceSharesSelectWhenNothingConverts(t *testing.T) {
	standalone := func(name string, opts CompileOptions) string {
		ir, _, _, err := cfgir.FromSource(workloads.ByName(name).Src, opts.Unroll, opts.OptLevel)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p, err := wavec.Compile(ir, wavec.Options{IfConvert: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return asm.Print(p)
	}
	shared := map[string]bool{}
	for _, name := range compileCorpus(20) {
		for opt := 0; opt <= 1; opt++ {
			opts := CompileOptions{Unroll: 4, OptLevel: opt}
			id := fmt.Sprintf("%s O%d", name, opt)
			c, err := CompileSource(name, workloads.ByName(name).Src, opts)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			want := standalone(name, opts)
			if asm.Print(c.WaveSel) != want {
				t.Errorf("%s: WaveSel differs from a standalone if-converting compile", id)
			}
			same := want == asm.Print(c.Wave)
			if (c.WaveSel == c.Wave) != same {
				t.Errorf("%s: WaveSel is Wave: %v; the two binaries are byte-equal: %v", id, c.WaveSel == c.Wave, same)
			}
			shared[name] = c.WaveSel == c.Wave

			// Select alone: still a select binary, and no steer one beside it.
			opts.Binaries = []string{"select"}
			only, err := CompileSource(name, workloads.ByName(name).Src, opts)
			if err != nil {
				t.Fatalf("%s, select only: %v", id, err)
			}
			if only.Wave != nil || only.WaveNoUn != nil || asm.Print(only.WaveSel) != want {
				t.Errorf("%s, select only: Wave=%v WaveNoUn=%v, WaveSel equal to the standalone build: %v", id,
					only.Wave != nil, only.WaveNoUn != nil, asm.Print(only.WaveSel) == want)
			}
		}
	}
	generated := false
	for name, is := range shared {
		generated = generated || is && strings.HasPrefix(name, "gen:")
	}
	if !shared["fft"] || !shared["ammp"] || shared["lu"] || !generated {
		t.Errorf("shared select binary: fft %v ammp %v lu %v, some generated program %v; want true true false true",
			shared["fft"], shared["ammp"], shared["lu"], generated)
	}

	// Rolled is the steer lowering when unrolling is off, so select and
	// rolled together share it with no steer binary asked for.
	c, err := CompileSource("fft", workloads.ByName("fft").Src, CompileOptions{Unroll: 1, Binaries: []string{"select", "rolled"}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Wave != nil || c.WaveSel == nil || c.WaveSel != c.WaveNoUn {
		t.Errorf("fft, select+rolled, unroll 1: Wave=%v, WaveSel is WaveNoUn: %v", c.Wave != nil, c.WaveSel == c.WaveNoUn)
	}
}

// TestCompileSourceConcurrentCallers: Suite compiles workloads on several
// goroutines and each compile now fans out itself. Eight callers at once
// must emit what one caller does — the pinned digests.
func TestCompileSourceConcurrentCallers(t *testing.T) {
	data, err := os.ReadFile(compileDigestsPath)
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]string{} // "name O<opt>" -> line
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		f := strings.SplitN(line, " ", 3)
		pinned[f[0]+" "+f[1]] = line
	}
	progs := compileCorpus(20)
	if testing.Short() {
		progs = progs[:15]
	}
	err = parallel.ForEach(8, 2*len(progs), func(i int) error {
		name, opt := progs[i/2], i%2
		line, err := compileDigestLine(name, opt)
		if err != nil {
			return err
		}
		if want, ok := pinned[fmt.Sprintf("%s O%d", name, opt)]; !ok || line != want {
			t.Errorf("compiled beside seven other callers:\n got:  %s\n want: %s", line, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCompileSourceStopsAtEvaluatorFuel: a source that does not terminate
// is refused as soon as the evaluator's budget is gone, and the emulator,
// which runs the same loop beside it, is stopped there instead of spending
// its own budget as well (with the default budgets that is the difference
// between 500M evaluator steps and the time of 2G emulated instructions, on
// every retry of a waved request). The error is the evaluator's whichever of
// the two gave up first.
func TestCompileSourceStopsAtEvaluatorFuel(t *testing.T) {
	const spin = "func main() { var i = 0; while 1 { i = i + 1; } return i; }"
	for _, emuFuel := range []int64{1_000, 1 << 50} {
		_, emulated, err := compileSource("spin", spin, DefaultCompileOptions(), 10_000, emuFuel)
		if !errors.Is(err, lang.ErrOutOfFuel) || !strings.HasPrefix(err.Error(), "spin: evaluator: ") {
			t.Errorf("emulator budget %d, evaluator out of fuel: err = %v", emuFuel, err)
		}
		// Stopped within a poll interval of the evaluator's last step, having
		// run only while the evaluator did: nowhere near 2^50.
		if emulated > 1<<32 {
			t.Errorf("emulator budget %d: it executed %d instructions", emuFuel, emulated)
		}
	}
	// With fuel for the evaluator only, the emulator's exhaustion is the
	// error; with fuel for both the program compiles.
	const count = "func main() { var i = 0; while i < 100 { i = i + 1; } return i; }"
	_, _, err := compileSource("count", count, DefaultCompileOptions(), 10_000, 50)
	if !errors.Is(err, linear.ErrFuel) || !strings.HasPrefix(err.Error(), "count: linear emulator: ") {
		t.Errorf("emulator out of fuel: err = %v", err)
	}
	if c, emulated, err := compileSource("count", count, DefaultCompileOptions(), 10_000, 10_000); err != nil || c.Checksum != 100 || emulated != c.UsefulInstrs {
		t.Errorf("within both budgets: %v, %d emulated, %v", c, emulated, err)
	}
}

var sinkCompiled *Compiled

// BenchmarkCompileSource is the whole compile layer at both optimizer
// tiers, on the subjects of the cfgir layer benchmarks: the generated
// "mixed" program with the largest function, and ammp. The steer
// sub-benchmarks ask for the one binary a waved simulate request compiles
// on its cold path.
func BenchmarkCompileSource(b *testing.B) {
	for _, name := range []string{"gen:mixed:3745987421742060995", "ammp"} {
		src := workloads.ByName(name).Src
		for _, bins := range [][]string{nil, {"steer"}} {
			for opt := 0; opt <= 1; opt++ {
				id := fmt.Sprintf("%s/O%d", name, opt)
				if bins != nil {
					id += "/" + bins[0]
				}
				b.Run(id, func(b *testing.B) {
					b.ReportAllocs()
					for b.Loop() {
						c, err := CompileSource(name, src, CompileOptions{Unroll: 4, OptLevel: opt, Binaries: bins})
						if err != nil {
							b.Fatal(err)
						}
						sinkCompiled = c
					}
				})
			}
		}
	}
}
