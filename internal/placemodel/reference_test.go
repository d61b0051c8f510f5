package placemodel

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"wavescalar/internal/cfgir"
	"wavescalar/internal/interp"
	"wavescalar/internal/isa"
	"wavescalar/internal/placement"
	"wavescalar/internal/profile"
	"wavescalar/internal/wavec"
	"wavescalar/internal/workloads"
)

// This file keeps the placement model's original, map-based formulation —
// Equations 1–5 evaluated from scratch over the whole profile — as the
// reference, and holds the dense incremental implementation to it: equal
// Components (==, not a tolerance) after every move and undo. Optimize is
// held to what it promises instead: never a layout scoring above its seed.

// pairLatencyRef is Equation 1: the latency between two placed instructions.
func (c Config) pairLatencyRef(peA, peB int) float64 {
	a, b := c.Machine.Loc(peA), c.Machine.Loc(peB)
	switch {
	case a.Cluster == b.Cluster && a.Domain == b.Domain && a.Pod == b.Pod:
		return c.PodLatency
	case a.Cluster == b.Cluster && a.Domain == b.Domain:
		return c.DomainLatency
	case a.Cluster == b.Cluster:
		return c.ClusterLatency
	default:
		ax, ay := a.Cluster%c.Machine.GridW, a.Cluster/c.Machine.GridW
		bx, by := b.Cluster%c.Machine.GridW, b.Cluster/c.Machine.GridW
		hops := abs(ax-bx) + abs(ay-by)
		return c.MeshBase + c.MeshPerHop*float64(hops)
	}
}

// operandLatencyRef is Equation 2: total operand traffic weighted by pair
// latency under the layout.
func operandLatencyRef(cfg Config, prof *profile.Profile, l Layout) float64 {
	total := 0.0
	for e, n := range prof.Traffic {
		pa, oka := l[e.From]
		pb, okb := l[e.To]
		if !oka || !okb {
			continue
		}
		total += float64(n) * cfg.pairLatencyRef(pa, pb)
	}
	return total
}

// coherenceMissRatioRef is Equations 3–4 under the migratory-sharing
// assumption: a line accessed from C > 1 clusters misses C times (one
// migration per cluster); a private line misses once (cold). The result is
// predicted misses / total accesses.
func coherenceMissRatioRef(cfg Config, prof *profile.Profile, l Layout) float64 {
	clustersOf := make(map[int64]map[int]bool) // line -> clusters touching it
	accesses := make(map[int64]uint64)
	for ref, lines := range prof.MemBlocks {
		pe, ok := l[ref]
		if !ok {
			continue
		}
		cluster := cfg.Machine.Loc(pe).Cluster
		for line, n := range lines {
			m := clustersOf[line]
			if m == nil {
				m = make(map[int]bool)
				clustersOf[line] = m
			}
			m[cluster] = true
			accesses[line] += n
		}
	}
	var misses, total float64
	for line, cs := range clustersOf {
		c := float64(len(cs))
		if c <= 1 {
			misses++
		} else {
			misses += c
		}
		total += float64(accesses[line])
	}
	if total == 0 {
		return 0
	}
	return misses / total
}

// peContentionRef is Equation 5: the number of instructions assigned to each
// PE beyond its storage capacity, summed over PEs.
func peContentionRef(cfg Config, l Layout) float64 {
	perPE := make(map[int]int)
	for _, pe := range l {
		perPE[pe]++
	}
	total := 0.0
	for _, n := range perPE {
		if n > cfg.PECapacity {
			total += float64(n - cfg.PECapacity)
		}
	}
	return total
}

// evaluateRef computes all three component metrics for one layout.
func evaluateRef(cfg Config, prof *profile.Profile, l Layout) Components {
	return Components{
		Latency:    operandLatencyRef(cfg, prof, l),
		Data:       coherenceMissRatioRef(cfg, prof, l),
		Contention: peContentionRef(cfg, l),
	}
}

func sortRefsRef(refs []profile.InstrRef) {
	// Insertion-free sort via the standard library would need a comparator
	// import; a simple deterministic ordering suffices.
	less := func(a, b profile.InstrRef) bool {
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		return a.Instr < b.Instr
	}
	for i := 1; i < len(refs); i++ {
		for j := i; j > 0 && less(refs[j], refs[j-1]); j-- {
			refs[j], refs[j-1] = refs[j-1], refs[j]
		}
	}
}

// TestPairLatencyMatchesReference holds Equation 1 computed from the
// cached per-PE locations to the Machine.Loc formulation for every PE pair,
// on a square and on a non-square grid.
func TestPairLatencyMatchesReference(t *testing.T) {
	for _, m := range []placement.Machine{placement.DefaultMachine(2, 2), placement.DefaultMachine(3, 2)} {
		cfg := DefaultConfig(m, m.Capacity)
		s := newState(cfg, profile.New(16), nil)
		for a := 0; a < m.NumPEs(); a++ {
			for b := 0; b < m.NumPEs(); b++ {
				if got, want := s.pairLatency(a, b), cfg.pairLatencyRef(a, b); got != want {
					t.Fatalf("%dx%d: pairLatency(%d,%d) = %v, reference %v", m.GridW, m.GridH, a, b, got, want)
				}
			}
		}
	}
}

// syntheticProfile builds a seeded profile over instructions 0..n-1 plus a
// few "outside" instructions the layout will not contain. It has self
// edges, both directions of an edge, edges and MemBlocks entries naming
// outside instructions, and few enough lines that several instructions —
// of one cluster and of several — share each.
func syntheticProfile(rng *rand.Rand, n int) *profile.Profile {
	prof := profile.New(16)
	ref := func(i int) profile.InstrRef {
		return profile.InstrRef{Func: isa.FuncID(i % 3), Instr: isa.InstrID(i / 3)}
	}
	total := n + 4 // the last four are never laid out
	for i := 0; i < total; i++ {
		prof.Fires[ref(i)] = 1
	}
	for e := 0; e < 4*n; e++ {
		a, b := rng.Intn(total), rng.Intn(total)
		tokens := uint64(1 + rng.Intn(50))
		prof.Traffic[profile.EdgeRef{From: ref(a), To: ref(b)}] += tokens
		if e%3 == 0 {
			prof.Traffic[profile.EdgeRef{From: ref(b), To: ref(a)}] += tokens + 1
		}
		if e%11 == 0 {
			prof.Traffic[profile.EdgeRef{From: ref(a), To: ref(a)}] += tokens
		}
	}
	lines := max(2, n/4)
	for i := 0; i < total; i += 2 {
		blocks := make(map[int64]uint64)
		for k := 0; k <= rng.Intn(4); k++ {
			blocks[int64(rng.Intn(lines))*7] += uint64(1 + rng.Intn(9))
		}
		prof.MemBlocks[ref(i)] = blocks
	}
	return prof
}

// walkMatchesReference walks the dense state of layout through steps random
// moves, undoing half of them, and requires its running Components to equal
// a from-scratch reference evaluation of the same layout after every step.
// It updates layout as it goes.
func walkMatchesReference(t *testing.T, cfg Config, prof *profile.Profile, layout Layout, rng *rand.Rand, steps int) {
	t.Helper()
	s := newState(cfg, prof, layout)
	npes := cfg.Machine.NumPEs()
	check := func(step int, what string) {
		t.Helper()
		if got, want := s.components(), evaluateRef(cfg, prof, layout); got != want {
			t.Fatalf("step %d (%s): incremental %+v, reference %+v", step, what, got, want)
		}
	}
	check(0, "build")
	if got := Evaluate(cfg, prof, layout); got != s.components() {
		t.Fatalf("Evaluate %+v differs from the state it builds %+v", got, s.components())
	}
	for step := 1; step <= steps; step++ {
		i := rng.Intn(len(s.pe))
		old, to := s.pe[i], rng.Intn(npes)
		s.move(i, to)
		layout[s.refs[i]] = to
		check(step, "move")
		if rng.Intn(2) == 0 {
			s.move(i, old)
			layout[s.refs[i]] = old
			check(step, "undo")
		}
	}
	if got := s.layout(s.pe); !reflect.DeepEqual(got, layout) {
		t.Fatal("dense assignment and map layout diverged")
	}
}

// TestIncrementalMatchesEvaluate holds the dense state to the reference
// equations along random walks: on synthetic profiles built to hit every
// corner of the bookkeeping, and on the inputs Optimize is really handed —
// the kernels' profiles and depth-first-snake seeds at both grids.
func TestIncrementalMatchesEvaluate(t *testing.T) {
	const n = 40
	cases := []struct {
		name     string
		machine  placement.Machine
		capacity int
	}{
		// 40 instructions on 32 PEs at capacity 1 keeps PEs hovering at
		// and one over capacity; on 128 PEs at capacity 2 mostly under.
		{"1x1", placement.DefaultMachine(1, 1), 1},
		{"2x2", placement.DefaultMachine(2, 2), 2},
		{"3x2", placement.DefaultMachine(3, 2), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			prof := syntheticProfile(rng, n)
			npes := tc.machine.NumPEs()

			layout := make(Layout)
			refs := make([]profile.InstrRef, 0, len(prof.Fires))
			for r := range prof.Fires {
				refs = append(refs, r)
			}
			sortRefsRef(refs)
			// Pack the first instructions two to a PE so the walk starts
			// with PEs at, over and under capacity; leave four out.
			for i, r := range refs[:n] {
				layout[r] = (i / 2) % npes
			}
			walkMatchesReference(t, DefaultConfig(tc.machine, tc.capacity), prof, layout, rng, 3000)
		})
	}
	kernels := feedbackCases(t)
	t.Run("kernels", func(t *testing.T) {
		for _, in := range kernels {
			t.Run(in.name(), func(t *testing.T) {
				t.Parallel()
				walkMatchesReference(t, in.cfg, in.prof, maps.Clone(in.seed), rand.New(rand.NewSource(42)), 300)
			})
		}
	})
}

// feedbackCase is NewProfileFeedback's inputs for one kernel on one grid.
type feedbackCase struct {
	kernel string
	grid   [2]int
	cfg    Config
	prof   *profile.Profile
	seed   Layout
}

func (c feedbackCase) name() string { return fmt.Sprintf("%s/%dx%d", c.kernel, c.grid[0], c.grid[1]) }

// kernelFeedback holds feedbackCases' inputs, built once per test binary.
var kernelFeedback struct {
	once  sync.Once
	cases []feedbackCase
}

// feedbackCases is NewProfileFeedback's inputs for the ten kernels on the
// 2x2 and 4x4 machines, kernel-major.
func feedbackCases(t *testing.T) []feedbackCase {
	t.Helper()
	kernelFeedback.once.Do(func() {
		for _, name := range workloads.Names() {
			prog, prof := kernelProfile(t, name)
			for _, grid := range [][2]int{{2, 2}, {4, 4}} {
				cfg, seed := feedbackSeed(t, prog, prof, grid[0], grid[1])
				kernelFeedback.cases = append(kernelFeedback.cases, feedbackCase{name, grid, cfg, prof, seed})
			}
		}
	})
	if len(kernelFeedback.cases) != 2*len(workloads.Names()) {
		t.Fatal("building the kernels' feedback inputs failed")
	}
	return kernelFeedback.cases
}

// kernelProfile compiles a kernel as the harness does by default (unroll 4,
// -O1) and profiles it on the interpreter at feedbackLineWords, as
// NewProfileFeedback does.
func kernelProfile(tb testing.TB, name string) (*isa.Program, *profile.Profile) {
	tb.Helper()
	ir, _, _, err := cfgir.FromSource(workloads.ByName(name).Src, 4, 1)
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := wavec.Compile(ir, wavec.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	im := interp.New(prog, 0)
	prof := im.CollectProfile(feedbackLineWords)
	if _, err := im.Run(); err != nil {
		tb.Fatal(err)
	}
	return prog, prof
}

// feedbackSeed is the rest of NewProfileFeedback's inputs on a w x h
// machine of the harness's density: the model configuration, and the
// depth-first-snake layout the climb starts from.
func feedbackSeed(tb testing.TB, prog *isa.Program, prof *profile.Profile, w, h int) (Config, Layout) {
	tb.Helper()
	m := placement.DefaultMachine(w, h)
	m.Capacity = 16 // harness.DefaultMachineOptions().Density: the machine E14 hands the policy
	base, err := placement.NewDepthFirstSnake(m, prog)
	if err != nil {
		tb.Fatal(err)
	}
	return DefaultConfig(m, m.Capacity), ExtractLayout(base, prof)
}

// feedbackInputs is NewProfileFeedback's inputs for one kernel on a w x h
// machine.
func feedbackInputs(tb testing.TB, name string, w, h int) (Config, *profile.Profile, Layout) {
	tb.Helper()
	prog, prof := kernelProfile(tb, name)
	cfg, seed := feedbackSeed(tb, prog, prof, w, h)
	return cfg, prof, seed
}

// seedScaledScore is the hill-climb's objective: the paper's weights over
// components scaled by the seed layout's.
func seedScaledScore(base, c Components) float64 {
	scale := func(v float64) float64 {
		if v <= 0 {
			return 1
		}
		return v
	}
	w := PaperWeights()
	return w.Latency*c.Latency/scale(base.Latency) + w.Data*c.Data/scale(base.Data) + w.Contention*c.Contention/scale(base.Contention)
}

// TestOptimizeNeverWorseThanSeed: on profile-feedback's inputs — the ten
// kernels, both grids, three rng seeds — the climb returns a layout its own
// objective scores no higher than the seed, returns the seed itself unless
// it found a layout strictly lower, and returns the same layout when called
// again. (TestOptimizeImprovesRealPerformance covers a seed that is beaten.)
func TestOptimizeNeverWorseThanSeed(t *testing.T) {
	cases := feedbackCases(t)
	var beaten, total atomic.Int64
	t.Run("kernels", func(t *testing.T) {
		for _, name := range workloads.Names() {
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				for _, in := range cases {
					if in.kernel != name {
						continue
					}
					for _, rngSeed := range []int64{12345, 1, 7} {
						got := Optimize(in.cfg, in.prof, in.seed, feedbackIters, rngSeed)
						base := Evaluate(in.cfg, in.prof, in.seed)
						before, after := seedScaledScore(base, base), seedScaledScore(base, Evaluate(in.cfg, in.prof, got))
						switch {
						case after > before:
							t.Errorf("%s rng seed %d: returned layout scores %.6f, above the seed's %.6f", in.name(), rngSeed, after, before)
						case after == before && !reflect.DeepEqual(got, in.seed):
							t.Errorf("%s rng seed %d: returned a layout other than the seed that does not score below it", in.name(), rngSeed)
						case after < before:
							beaten.Add(1)
							t.Logf("%s rng seed %d: seed-scaled score %.4f -> %.4f", in.name(), rngSeed, before, after)
						}
						if again := Optimize(in.cfg, in.prof, in.seed, feedbackIters, rngSeed); !reflect.DeepEqual(again, got) {
							t.Errorf("%s rng seed %d: a second call returned a different layout", in.name(), rngSeed)
						}
						total.Add(1)
					}
				}
			})
		}
	})
	t.Logf("%d of %d inputs returned a layout below the seed; the rest returned the seed", beaten.Load(), total.Load())
}

func TestOptimizeEmptyLayout(t *testing.T) {
	cfg := DefaultConfig(placement.DefaultMachine(2, 2), 64)
	got := Optimize(cfg, profile.New(16), Layout{}, 100, 1)
	if got == nil || len(got) != 0 {
		t.Errorf("Optimize of an empty layout = %v, want an empty layout", got)
	}
}

// A home outside the machine would index past the per-PE tables, so the
// model rejects it up front.
func TestEvaluateHomeOutsideMachinePanics(t *testing.T) {
	cfg := DefaultConfig(placement.DefaultMachine(1, 1), 64)
	l := Layout{{Func: 0, Instr: 0}: cfg.Machine.NumPEs()}
	defer func() {
		if recover() == nil {
			t.Error("Evaluate of a layout homed outside the machine did not panic")
		}
	}()
	Evaluate(cfg, profile.New(16), l)
}

// BenchmarkOptimize runs one hill-climb per iteration over
// NewProfileFeedback's inputs and reports the cost per move.
func BenchmarkOptimize(b *testing.B) {
	for _, name := range []string{"ammp", "twolf"} {
		prog, prof := kernelProfile(b, name)
		for _, grid := range [][2]int{{2, 2}, {4, 4}} {
			cfg, seed := feedbackSeed(b, prog, prof, grid[0], grid[1])
			b.Run(fmt.Sprintf("%s/%dx%d", name, grid[0], grid[1]), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					Optimize(cfg, prof, seed, feedbackIters, 12345)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/feedbackIters, "ns/move")
			})
		}
	}
}

// BenchmarkMove is the steady-state loop alone — one move and its undo on
// a built state — and must report 0 allocs/op.
func BenchmarkMove(b *testing.B) {
	cfg, prof, seed := feedbackInputs(b, "twolf", 4, 4)
	s := newState(cfg, prof, seed)
	rng := rand.New(rand.NewSource(1))
	npes := cfg.Machine.NumPEs()
	b.ReportAllocs()
	for b.Loop() {
		i := rng.Intn(len(s.pe))
		old := s.pe[i]
		s.move(i, rng.Intn(npes))
		s.move(i, old)
	}
}

func BenchmarkEvaluate(b *testing.B) {
	cfg, prof, seed := feedbackInputs(b, "twolf", 4, 4)
	b.ReportAllocs()
	for b.Loop() {
		Evaluate(cfg, prof, seed)
	}
}
