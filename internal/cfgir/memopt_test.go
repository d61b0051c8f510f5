package cfgir

import (
	"testing"

	"wavescalar/internal/lang"
)

// compileMem builds, compacts, base-optimizes, and runs the memory tier,
// returning the program and the tier's stats.
func compileMem(t *testing.T, src string) (*Program, MemOptStats) {
	t.Helper()
	p := compile(t, src, true)
	st := p.OptimizeMemory()
	return p, st
}

// checkAgainstEvaluator runs src through the AST evaluator and the IR
// interpreter (memory tier on) and compares both the result and the final
// memory image.
func checkAgainstEvaluator(t *testing.T, src string) (*Program, MemOptStats) {
	t.Helper()
	f, err := lang.ParseAndCheck(src)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	ev := lang.NewEvaluator(f, 0)
	want, err := ev.Run()
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	p, st := compileMem(t, src)
	ip := NewInterp(p, 0)
	got, err := ip.Run()
	if err != nil {
		t.Fatalf("interp error: %v\n%s", err, p)
	}
	if got != want {
		t.Fatalf("interp=%d evaluator=%d\n%s", got, want, p)
	}
	evMem, ipMem := ev.Memory(), ip.Memory()
	if len(evMem) != len(ipMem) {
		t.Fatalf("memory sizes differ: %d vs %d", len(evMem), len(ipMem))
	}
	for i := range evMem {
		if evMem[i] != ipMem[i] {
			t.Fatalf("memory[%d]: evaluator=%d interp=%d\n%s", i, evMem[i], ipMem[i], p)
		}
	}
	return p, st
}

// TestMemOptMatchesEvaluator runs the full differential corpus with the
// memory tier enabled: every case must agree with the AST evaluator.
func TestMemOptMatchesEvaluator(t *testing.T) {
	for _, src := range differentialCases {
		want, err := lang.EvalProgram(src)
		if err != nil {
			t.Fatalf("evaluator failed on %q: %v", src, err)
		}
		p, _ := compileMem(t, src)
		got, err := NewInterp(p, 0).Run()
		if err != nil {
			t.Errorf("memopt: interp error on %q: %v\n%s", src, err, p)
			continue
		}
		if got != want {
			t.Errorf("memopt: %q: interp=%d evaluator=%d\n%s", src, got, want, p)
		}
	}
}

// TestStoreToLoadForwarding: a load immediately after a store to the same
// global must become a register move.
func TestStoreToLoadForwarding(t *testing.T) {
	src := "global g;\nfunc main() { g = 41; return g + 1; }"
	_, st := checkAgainstEvaluator(t, src)
	if st.StoresForwarded == 0 {
		t.Fatalf("expected store-to-load forwarding to fire; stats: %+v", st)
	}
}

// TestRedundantLoadSurvivesOtherStore: two loads of a[0] separated by a
// store to a provably different constant address. The base CSE window
// closes at the store; the memory tier's canonical-address facts survive
// it, so the second load must be eliminated.
func TestRedundantLoadSurvivesOtherStore(t *testing.T) {
	src := "global a[8];\nfunc main() { a[0] = 7; var x = a[0]; a[1] = 9; var y = a[0]; return x * 100 + y; }"
	p, st := checkAgainstEvaluator(t, src)
	if got := memOps(p); got > 2 {
		t.Fatalf("expected at most 2 memory ops after optimization, got %d\n%s", got, p)
	}
	if st.StoresForwarded == 0 {
		t.Fatalf("expected forwarding through the intervening store; stats: %+v", st)
	}
}

// TestStoreBetweenLoadsBlocksReuse: a store through an unknown
// (non-constant) address between two loads of the same address must block
// elimination of the second load — the store may alias.
func TestStoreBetweenLoadsBlocksReuse(t *testing.T) {
	src := "global a[8];\nfunc idx() { return 0; }\nfunc main() { var x = a[3]; a[idx()] = 55; var y = a[3]; return x + y * 1000; }"
	p, _ := checkAgainstEvaluator(t, src)
	loads := 0
	for _, f := range p.Funcs {
		if f.Name != "main" {
			continue
		}
		for _, b := range f.Blocks {
			if b == nil {
				continue
			}
			for i := range b.Instrs {
				if b.Instrs[i].Kind == KLoad {
					loads++
				}
			}
		}
	}
	if loads < 2 {
		t.Fatalf("aliasing store must keep both loads of a[3]; main has %d loads\n%s", loads, p)
	}
}

// TestCallBoundaryInvalidation: a call to a memory-touching function kills
// facts; a call to a pure function does not.
func TestCallBoundaryInvalidation(t *testing.T) {
	touching := "global g = 5;\nfunc bump() { g = g + 1; return 0; }\nfunc main() { var x = g; bump(); var y = g; return x * 10 + y; }"
	p, _ := checkAgainstEvaluator(t, touching)
	if loads := funcLoads(p, "main"); loads < 2 {
		t.Fatalf("memory-touching call must keep the reload; main has %d loads\n%s", loads, p)
	}

	pure := "global g = 5;\nfunc id(x) { return x; }\nfunc main() { var x = g; var k = id(3); var y = g; return x * 100 + y * 10 + k; }"
	p, st := checkAgainstEvaluator(t, pure)
	if loads := funcLoads(p, "main"); loads > 1 {
		t.Fatalf("pure call must not kill the fact; main has %d loads\n%s", loads, p)
	}
	if st.LoadsReused+st.LoadsPromoted == 0 {
		t.Fatalf("expected load reuse across a pure call; stats: %+v", st)
	}
}

// TestDeadStoreElimination: an overwritten store with no intervening
// observer disappears; an intervening load keeps it.
func TestDeadStoreElimination(t *testing.T) {
	dead := "global g;\nfunc main() { g = 1; g = 2; return g; }"
	p, st := checkAgainstEvaluator(t, dead)
	if st.DeadStores == 0 {
		t.Fatalf("expected dead-store elimination; stats: %+v", st)
	}
	if stores := funcStores(p, "main"); stores > 1 {
		t.Fatalf("expected a single surviving store, got %d\n%s", stores, p)
	}

	// Here the forwarding pass rewrites the load of g to the stored value,
	// which then makes the first store dead — the passes must cooperate, and
	// the observable result (x == 1) must survive.
	observed := "global g;\nglobal sink;\nfunc main() { g = 1; sink = g; g = 2; return sink * 10 + g; }"
	checkAgainstEvaluator(t, observed)
}

// TestScalarPromotionAcrossBlocks: once a read of a global establishes the
// fact, a loop that only reads it must have the in-loop load promoted to a
// register carried across the back edge (the headline scalar-replacement
// case). The tier never hoists — the pre-loop read is what makes promotion
// trap-safe on a zero-trip loop.
func TestScalarPromotionAcrossBlocks(t *testing.T) {
	src := "global g = 7;\nfunc main() { var s = g; for var i = 0; i < 10; i = i + 1 { s = s + g; } return s; }"
	p, st := checkAgainstEvaluator(t, src)
	if st.LoadsPromoted == 0 {
		t.Fatalf("expected cross-block promotion of the loop-invariant load; stats: %+v", st)
	}
	if loads := funcLoads(p, "main"); loads > 1 {
		t.Fatalf("expected the in-loop load of g to be promoted; main has %d loads\n%s", loads, p)
	}
}

// TestLoopStoreKillsPromotion: the same loop, but the body also stores
// through an array slot — the back edge must kill the fact and the load of
// g must stay inside the loop.
func TestLoopStoreKillsPromotion(t *testing.T) {
	src := "global g = 7;\nglobal a[16];\nfunc main() { var s = 0; var t = g; for var i = 0; i < 10; i = i + 1 { a[i] = s; s = s + g; } return s + t; }"
	p, _ := checkAgainstEvaluator(t, src)
	// The in-loop load of g must survive: a[i] = s may alias g for all the
	// syntactic model knows (i is not a constant).
	if loads := funcLoads(p, "main"); loads < 1 {
		t.Fatalf("in-loop store must block promotion of the g load; main has %d loads", loads)
	}
	// And specifically the loop body block must still contain a load.
	if !loopBlockHasLoad(p, "main") {
		t.Fatalf("expected a load inside the loop body\n%s", p)
	}
}

// TestPointerChasingPreserved: data-dependent addresses (the pointer-
// chasing corpus family's access pattern) must not be touched — every
// address register is redefined each iteration.
func TestPointerChasingPreserved(t *testing.T) {
	src := "global a[16] = {3, 5, 1, 9, 0, 4, 2, 8, 7, 6, 11, 15, 12, 10, 14, 13};\nfunc main() { var p = 0; var s = 0; for var i = 0; i < 32; i = i + 1 { p = a[p % 16]; s = (s * 31 + p) % 1000000007; } return s; }"
	checkAgainstEvaluator(t, src)
}

// TestCrossArrayDisambiguation: the ammp move-loop pattern. x[i] and y[i]
// share the index root but differ by the (constant) array base, so the
// store to y[i] must not kill the fact about x[i] — the reload of x[i]
// becomes a forwarded register value even though i is not a constant.
func TestCrossArrayDisambiguation(t *testing.T) {
	src := "global x[8];\nglobal y[8];\nfunc main() { var s = 0; for var i = 0; i < 8; i = i + 1 { x[i] = i * 3; y[i] = i * 5; s = s + x[i]; } return s; }"
	p, st := checkAgainstEvaluator(t, src)
	if st.StoresForwarded == 0 {
		t.Fatalf("expected forwarding of x[i] across the y[i] store; stats: %+v\n%s", st, p)
	}
	if loads := funcLoads(p, "main"); loads != 0 {
		t.Fatalf("expected every load forwarded away; main has %d loads\n%s", loads, p)
	}
}

// TestSameRootOffsetDisambiguation: a[i] and a[i+1] share a value-number
// root with constant offsets 0 and 1 — provably distinct addresses — so
// the intervening store to a[i+1] must not block forwarding the a[i]
// store to its reload. This is the shape unrolled loop bodies take.
func TestSameRootOffsetDisambiguation(t *testing.T) {
	src := "global a[8];\nfunc main() { var s = 0; for var i = 0; i < 7; i = i + 1 { a[i] = i; a[i + 1] = i * 2; s = s + a[i]; } return s; }"
	p, st := checkAgainstEvaluator(t, src)
	if st.StoresForwarded == 0 {
		t.Fatalf("expected forwarding of a[i] across the a[i+1] store; stats: %+v\n%s", st, p)
	}
}

// TestCommutativeSumCanonicalization: a[i*4 + j] stored, then reloaded as
// a[j + i*4] — the two address registers are built in different operand
// orders from opaque values, so only the pass's commutative pair roots
// can prove them equal.
func TestCommutativeSumCanonicalization(t *testing.T) {
	src := "global a[16];\nfunc main() { var s = 0; for var i = 0; i < 4; i = i + 1 { for var j = 0; j < 4; j = j + 1 { a[i * 4 + j] = i + j; s = s + a[j + i * 4]; } } return s; }"
	p, st := checkAgainstEvaluator(t, src)
	if st.StoresForwarded == 0 {
		t.Fatalf("expected forwarding through the commuted address; stats: %+v\n%s", st, p)
	}
}

// TestUnrelatedRootStoreKills: a store through an address with a different,
// unrelated value-number root may alias anything — the reload must stay.
func TestUnrelatedRootStoreKills(t *testing.T) {
	src := "global x[8];\nglobal y[8];\nfunc main() { var s = 0; for var k = 0; k < 8; k = k + 1 { var j = (k * 3) % 8; x[k] = k; y[j] = k * 2; s = s + x[k]; } return s; }"
	p, st := checkAgainstEvaluator(t, src)
	if st.StoresForwarded != 0 {
		t.Fatalf("store through unrelated root must kill the x[k] fact; stats: %+v\n%s", st, p)
	}
	if loads := funcLoads(p, "main"); loads == 0 {
		t.Fatalf("expected the x[k] reload to survive\n%s", p)
	}
}

// TestMemOptStatsCounting: the stats must add up — MemAfter + eliminated
// memory ops == MemBefore.
func TestMemOptStatsCounting(t *testing.T) {
	src := "global g;\nfunc main() { g = 1; g = 2; var x = g; var y = g; return x + y; }"
	p, st := checkAgainstEvaluator(t, src)
	if st.MemBefore <= st.MemAfter {
		t.Fatalf("expected a net memory-op reduction: %+v", st)
	}
	if got := memOps(p); got != int(st.MemAfter) {
		t.Fatalf("MemAfter=%d but program has %d memory ops", st.MemAfter, got)
	}
	if st.Eliminated() < 0 {
		t.Fatalf("cleanup must never grow the program: %+v", st)
	}
}

// TestMemOptIdempotent: a second run of the tier finds nothing new.
func TestMemOptIdempotent(t *testing.T) {
	src := "global g;\nglobal a[8];\nfunc main() { g = 3; var s = 0; for var i = 0; i < 8; i = i + 1 { a[i] = g + i; } for var i = 0; i < 8; i = i + 1 { s = s + a[i]; } return s; }"
	p, _ := compileMem(t, src)
	st2 := p.OptimizeMemory()
	if st2.StoresForwarded+st2.LoadsReused+st2.LoadsPromoted+st2.DeadStores != 0 {
		t.Fatalf("second run must be a no-op: %+v", st2)
	}
}

func memOps(p *Program) int {
	n := 0
	for _, f := range p.Funcs {
		loads, stores := countMemOps(f)
		n += int(loads + stores)
	}
	return n
}

func funcLoads(p *Program, name string) int {
	return funcKind(p, name, KLoad)
}

func funcStores(p *Program, name string) int {
	return funcKind(p, name, KStore)
}

func funcKind(p *Program, name string, kind InstrKind) int {
	n := 0
	for _, f := range p.Funcs {
		if f.Name != name {
			continue
		}
		for _, b := range f.Blocks {
			if b == nil {
				continue
			}
			for i := range b.Instrs {
				if b.Instrs[i].Kind == kind {
					n++
				}
			}
		}
	}
	return n
}

// loopBlockHasLoad reports whether any block inside a loop (reachable from
// a back-edge source) contains a load.
func loopBlockHasLoad(p *Program, name string) bool {
	for _, f := range p.Funcs {
		if f.Name != name {
			continue
		}
		headers := f.LoopHeaders()
		for bi, b := range f.Blocks {
			if b == nil || !headers[bi] {
				continue
			}
			// Scan every block dominated-ish by the header: cheap
			// approximation — any block with a path back to the header.
			for _, b2 := range f.Blocks {
				if b2 == nil {
					continue
				}
				if reaches(f, b2.ID, bi) {
					for i := range b2.Instrs {
						if b2.Instrs[i].Kind == KLoad {
							return true
						}
					}
				}
			}
		}
	}
	return false
}

func reaches(f *Func, from, to int) bool {
	seen := make([]bool, len(f.Blocks))
	stack := []int{from}
	for len(stack) > 0 {
		bi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if bi == to {
			return true
		}
		if bi < 0 || bi >= len(f.Blocks) || seen[bi] || f.Blocks[bi] == nil {
			continue
		}
		seen[bi] = true
		stack = append(stack, f.Blocks[bi].Succs()...)
	}
	return false
}
