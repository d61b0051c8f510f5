package cfgir

import (
	"reflect"
	"strings"
	"testing"

	"wavescalar/internal/isa"
	"wavescalar/internal/testprogs"
	"wavescalar/internal/workloads"
)

// This file keeps the optimizer's original, quadratic formulations as
// reference implementations and holds the linear ones to them, block for
// block and set for set, on every function of the ten kernels and a
// generated corpus.

// localCSERef is localCSE as first written: every defining instruction
// scans the whole avail and copies maps, every store or call the whole
// avail map.
func localCSERef(b *Block) bool {
	type key struct {
		kind InstrKind
		op   isa.Opcode
		a, b Reg
		c    Reg
		imm  int64
	}
	changed := false
	avail := make(map[key]Reg)
	users := make(map[Reg][]key)
	copies := make(map[Reg]Reg)

	resolve := func(r Reg) Reg {
		for {
			s, ok := copies[r]
			if !ok {
				return r
			}
			r = s
		}
	}
	invalidate := func(r Reg) {
		for _, k := range users[r] {
			delete(avail, k)
		}
		delete(users, r)
		for k, v := range avail {
			if v == r {
				delete(avail, k)
			}
		}
		delete(copies, r)
		for d, s := range copies {
			if s == r {
				delete(copies, d)
			}
		}
	}

	for i := range b.Instrs {
		in := &b.Instrs[i]
		switch in.Kind {
		case KAlu:
			na, nb := resolve(in.A), resolve(in.B)
			if na != in.A || (in.Op.NumInputs() == 2 && nb != in.B) {
				in.A = na
				if in.Op.NumInputs() == 2 {
					in.B = nb
				}
				changed = true
			}
		case KLoad:
			if na := resolve(in.A); na != in.A {
				in.A = na
				changed = true
			}
		case KStore:
			na, nb := resolve(in.A), resolve(in.B)
			if na != in.A || nb != in.B {
				in.A, in.B = na, nb
				changed = true
			}
		case KSelect:
			na, nb, nc := resolve(in.A), resolve(in.B), resolve(in.C)
			if na != in.A || nb != in.B || nc != in.C {
				in.A, in.B, in.C = na, nb, nc
				changed = true
			}
		case KCall:
			for j, a := range in.Args {
				if na := resolve(a); na != a {
					in.Args[j] = na
					changed = true
				}
			}
		}

		var k key
		cacheable := false
		switch in.Kind {
		case KConst:
			k = key{kind: KConst, imm: in.Imm}
			cacheable = true
		case KAlu:
			k = key{kind: KAlu, op: in.Op, a: in.A, b: in.B}
			if in.Op.NumInputs() == 1 {
				k.b = NoReg
			}
			cacheable = true
		case KLoad:
			k = key{kind: KLoad, a: in.A}
			cacheable = true
		case KSelect:
			k = key{kind: KSelect, a: in.A, b: in.B, c: in.C}
			cacheable = true
		case KStore, KCall:
			for kk := range avail {
				if kk.kind == KLoad {
					delete(avail, kk)
				}
			}
		}

		if in.HasDst() {
			invalidate(in.Dst)
		}

		if cacheable {
			if prev, ok := avail[k]; ok && prev != in.Dst {
				dst := in.Dst
				*in = Instr{Kind: KAlu, Op: isa.OpOr, Dst: dst, A: prev, B: prev}
				copies[dst] = prev
				users[prev] = append(users[prev], key{kind: KAlu, op: isa.OpOr, a: prev, b: prev})
				changed = true
				continue
			}
			avail[k] = in.Dst
			if k.a != NoReg && in.Kind != KConst {
				users[k.a] = append(users[k.a], k)
			}
			if k.b != NoReg && (in.Kind == KAlu || in.Kind == KSelect) {
				users[k.b] = append(users[k.b], k)
			}
			if k.c != NoReg && in.Kind == KSelect {
				users[k.c] = append(users[k.c], k)
			}
			if in.Kind == KAlu && in.Op == isa.OpOr && in.A == in.B {
				copies[in.Dst] = in.A
			}
		}
	}
	return changed
}

// livenessRef is Liveness as first written: the transfer function clones
// live-out and removes the block's definitions one member at a time.
func livenessRef(f *Func) (liveIn, liveOut []RegSet) {
	n := len(f.Blocks)
	liveIn = make([]RegSet, n)
	liveOut = make([]RegSet, n)
	use := make([]RegSet, n)
	def := make([]RegSet, n)
	var buf []Reg
	for i, b := range f.Blocks {
		liveIn[i] = NewRegSet(f.NumRegs)
		liveOut[i] = NewRegSet(f.NumRegs)
		use[i] = NewRegSet(f.NumRegs)
		def[i] = NewRegSet(f.NumRegs)
		for j := range b.Instrs {
			in := &b.Instrs[j]
			buf = in.Uses(buf[:0])
			for _, r := range buf {
				if !def[i].Has(r) {
					use[i].Add(r)
				}
			}
			if in.HasDst() {
				def[i].Add(in.Dst)
			}
		}
		switch b.Term.Kind {
		case TBranch:
			if !def[i].Has(b.Term.Cond) {
				use[i].Add(b.Term.Cond)
			}
		case TRet:
			if !def[i].Has(b.Term.Val) {
				use[i].Add(b.Term.Val)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			for _, s := range f.Blocks[i].Succs() {
				if liveOut[i].UnionWith(liveIn[s]) {
					changed = true
				}
			}
			newIn := liveOut[i].Clone()
			for _, r := range def[i].Members() {
				newIn.Remove(r)
			}
			newIn.UnionWith(use[i])
			if liveIn[i].UnionWith(newIn) {
				changed = true
			}
		}
	}
	return liveIn, liveOut
}

// eliminateDeadCodeRef is eliminateDeadCode as first written: a clone of
// the live-out set and a fresh instruction slice per block, filled backwards
// and reversed.
func eliminateDeadCodeRef(f *Func) bool {
	_, liveOut := f.Liveness()
	changed := false
	var buf []Reg
	for bi, b := range f.Blocks {
		live := liveOut[bi].Clone()
		switch b.Term.Kind {
		case TBranch:
			live.Add(b.Term.Cond)
		case TRet:
			live.Add(b.Term.Val)
		}
		keep := make([]Instr, 0, len(b.Instrs))
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			if in.Pure() && !live.Has(in.Dst) {
				changed = true
				continue
			}
			if in.HasDst() {
				live.Remove(in.Dst)
			}
			buf = in.Uses(buf[:0])
			for _, r := range buf {
				live.Add(r)
			}
			keep = append(keep, in)
		}
		for i, j := 0, len(keep)-1; i < j; i, j = i+1, j-1 {
			keep[i], keep[j] = keep[j], keep[i]
		}
		b.Instrs = keep
	}
	return changed
}

// optimizeRef is Optimize as first written: every round runs both local
// passes on every block. A block counts as changed when its instructions
// differ from a copy taken before the passes ran, whatever the passes
// report (Optimize judges them by the same net edit). It reports per
// function whether the rounds ended at a fixpoint, which is what Optimize
// records in Func.converged.
func optimizeRef(p *Program) {
	var s optScratch
	for _, f := range p.Funcs {
		f.Compact()
		f.converged = false
		for round := 0; round < 4; round++ {
			changed := false
			for _, b := range f.Blocks {
				before := cloneBlock(b)
				s.foldConstants(f, b)
				localCSERef(b)
				if !reflect.DeepEqual(b.Instrs, before.Instrs) {
					changed = true
				}
			}
			if foldBranches(f) {
				changed = true
			}
			if eliminateDeadCodeRef(f) {
				changed = true
			}
			f.Compact()
			if !changed {
				f.converged = true
				break
			}
		}
	}
}

// optimizeMemoryRef is OptimizeMemory as first written: the tier on every
// function, then the whole base pipeline on every function.
func optimizeMemoryRef(p *Program) MemOptStats {
	var total MemOptStats
	touches := p.MemTouches()
	for _, f := range p.Funcs {
		st := MemOptStats{MemBefore: countMemOps(f), InstrsBefore: countInstrs(f)}
		for round := 0; round < 4; round++ {
			changed := forwardLocal(f, touches, &st)
			constOf := constDefs(f)
			if forwardMemory(f, touches, constOf, &st) {
				changed = true
			}
			if eliminateDeadStores(f, touches, constOf, &st) {
				changed = true
			}
			if !changed {
				break
			}
		}
		st.MemAfter = countMemOps(f)
		total.Add(st)
	}
	optimizeRef(p)
	total.InstrsAfter = 0
	for _, f := range p.Funcs {
		total.InstrsAfter += countInstrs(f)
	}
	return total
}

// roundBoundSrc needs more than four rounds of the base pipeline: each
// round's dead-code elimination exposes the next link of a chain of
// cross-block dead values. Optimize stops on it at the round bound, so it
// must not count as converged — a further run (the memory tier's cleanup)
// still changes it.
const roundBoundSrc = `
func main() {
	var a = 1; var b = 0; var c = 0; var d = 0; var e = 0; var f = 0; var g = 0; var h = 0;
	var i = 0;
	while i < 3 { b = a + i; i = i + 1; }
	while i < 6 { c = b + i; i = i + 1; }
	while i < 9 { d = c + i; i = i + 1; }
	while i < 12 { e = d + i; i = i + 1; }
	while i < 15 { f = e + i; i = i + 1; }
	while i < 18 { g = f + i; i = i + 1; }
	while i < 21 { h = g + i; i = i + 1; }
	return i;
}`

// TestOptimizeMatchesRunEverythingReference: skipping settled blocks, the
// in-place dead-code elimination and the cleanup OptimizeMemory leaves out
// change nothing — every function of the corpus, at both tiers and unrolled
// or not, is DeepEqual (instructions, block order, register count and the
// converged mark) to what the run-everything pipeline makes of it, and the
// tier's counters are the same.
func TestOptimizeMatchesRunEverythingReference(t *testing.T) {
	type subject struct{ name, src string }
	subjects := []subject{{"round bound", roundBoundSrc}}
	for _, s := range referenceCorpus(50) {
		subjects = append(subjects, subject{s, workloads.ByName(s).Src})
	}
	funcs, unconverged, cleanupsLeftOut := 0, 0, 0
	for _, s := range subjects {
		for _, unroll := range []int{1, 4} {
			got, _, _, err := FromSource(s.src, unroll, OptNone)
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			want := got.Clone()
			got.Optimize()
			optimizeRef(want)
			compare := func(tier string) {
				t.Helper()
				for i, f := range got.Funcs {
					// The reference leaves an empty block an empty, non-nil
					// slice where the builder's nil survives in-place
					// compaction; DeepEqual tells the two apart.
					for _, fn := range []*Func{f, want.Funcs[i]} {
						for _, b := range fn.Blocks {
							if len(b.Instrs) == 0 {
								b.Instrs = nil
							}
						}
					}
					if !reflect.DeepEqual(f, want.Funcs[i]) {
						t.Fatalf("%s unroll %d %s: %s differs from the run-everything reference\n got:\n%s\n want:\n%s",
							s.name, unroll, tier, f.Name, f, want.Funcs[i])
					}
				}
			}
			compare("O0")
			for _, f := range got.Funcs {
				funcs++
				if !f.converged {
					unconverged++
				}
			}
			before := make([]string, len(got.Funcs))
			for i, f := range got.Funcs {
				before[i] = f.String()
			}
			gotSt, wantSt := got.OptimizeMemory(), optimizeMemoryRef(want)
			if gotSt != wantSt {
				t.Fatalf("%s unroll %d: memory tier counters %+v, reference %+v", s.name, unroll, gotSt, wantSt)
			}
			compare("O1")
			for i, f := range got.Funcs {
				if f.String() == before[i] {
					cleanupsLeftOut++
				}
			}
		}
	}
	if unconverged == 0 {
		t.Error("no function stopped at the round bound; the test needs one")
	}
	t.Logf("compared %d functions at two tiers; %d stopped at the round bound; the memory tier left %d unchanged", funcs, unconverged, cleanupsLeftOut)
}

// TestOptimizeStopsAtItsFixpoint: every function of the kernels and the
// generated corpus, unrolled or not, reaches its fixpoint within the round
// bound at both tiers — only roundBoundSrc's chain of dead values outlasts
// it — and optimizing an optimized function again runs one round and
// changes nothing.
func TestOptimizeStopsAtItsFixpoint(t *testing.T) {
	type subject struct{ name, src string }
	subjects := []subject{{"round bound", roundBoundSrc}}
	for _, s := range referenceCorpus(50) {
		subjects = append(subjects, subject{s, workloads.ByName(s).Src})
	}
	funcs := 0
	for _, s := range subjects {
		for _, unroll := range []int{1, 4} {
			for _, tier := range []int{0, 1} {
				p, _, _, err := FromSource(s.src, unroll, tier)
				if err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
				for _, f := range p.Funcs {
					funcs++
					if !f.converged {
						if s.src != roundBoundSrc {
							t.Errorf("%s unroll %d O%d: %s stopped at the round bound", s.name, unroll, tier, f.Name)
						}
						continue
					}
					again := (&Program{Funcs: []*Func{f}}).Clone().Funcs[0]
					var sc optScratch
					sc.optimize(again)
					if sc.rounds != 1 || !reflect.DeepEqual(again, f) {
						t.Errorf("%s unroll %d O%d: %s optimized again ran %d rounds, changed %v",
							s.name, unroll, tier, f.Name, sc.rounds, !reflect.DeepEqual(again, f))
					}
				}
			}
		}
	}
	t.Logf("checked %d functions", funcs)
}

// referenceCorpus names the ten kernels plus n generated programs
// (workloads.ByName resolves both kinds).
func referenceCorpus(n int) []string {
	names := workloads.Names()
	for _, spec := range testprogs.CorpusSpecs(n, 1) {
		names = append(names, spec.Name())
	}
	return names
}

func mustFromSource(tb testing.TB, name string, unroll, optLevel int) *Program {
	tb.Helper()
	p, _, _, err := FromSource(workloads.ByName(name).Src, unroll, optLevel)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	return p
}

// TestLocalCSEMatchesReference replays Optimize's pass loop on every
// corpus function and, at each point the pipeline would run localCSE, runs
// both formulations on copies of the block. One scratch serves the whole
// test, so every block pass after the first starts on tables an earlier
// block, function or program left behind.
func TestLocalCSEMatchesReference(t *testing.T) {
	var sc optScratch
	blocks := 0
	for _, s := range referenceCorpus(50) {
		for _, unroll := range []int{1, 4} {
			p := mustFromSource(t, s, unroll, OptNone)
			for _, f := range p.Funcs {
				for round := 0; round < 4; round++ {
					changed := false
					for _, b := range f.Blocks {
						if sc.foldConstants(f, b) {
							changed = true
						}
						ref := cloneBlock(b)
						got, want := sc.localCSE(f, b), localCSERef(ref)
						if got != want || !reflect.DeepEqual(b.Instrs, ref.Instrs) {
							t.Fatalf("%s unroll %d: %s b%d round %d: localCSE changed=%v, reference changed=%v\n got:  %v\n want: %v",
								s, unroll, f.Name, b.ID, round, got, want, b.Instrs, ref.Instrs)
						}
						changed = changed || got
						blocks++
					}
					if foldBranches(f) {
						changed = true
					}
					if sc.eliminateDeadCode(f) {
						changed = true
					}
					f.Compact()
					if !changed {
						break
					}
				}
			}
		}
	}
	t.Logf("compared %d block passes", blocks)
}

func cloneBlock(b *Block) *Block {
	f := &Func{Blocks: []*Block{b}}
	return (&Program{Funcs: []*Func{f}}).Clone().Funcs[0].Blocks[0]
}

// TestLivenessMatchesReference compares the live sets of every corpus
// function as built, as optimized at both tiers, and in the shapes the
// dataflow backend analyses (if-converted, critical edges split).
func TestLivenessMatchesReference(t *testing.T) {
	funcs := 0
	check := func(s, stage string, p *Program) {
		t.Helper()
		for _, f := range p.Funcs {
			in, out := f.Liveness()
			wantIn, wantOut := livenessRef(f)
			if !reflect.DeepEqual(in, wantIn) || !reflect.DeepEqual(out, wantOut) {
				t.Fatalf("%s (%s): %s: live sets differ from the reference", s, stage, f.Name)
			}
			funcs++
		}
	}
	for _, s := range referenceCorpus(50) {
		check(s, "built", mustFromSource(t, s, 4, OptNone))
		check(s, "O0", mustFromSource(t, s, 4, 0))
		p := mustFromSource(t, s, 4, 1)
		check(s, "O1", p)
		for _, f := range p.Funcs {
			f.IfConvert()
			f.SplitCriticalEdges()
		}
		check(s, "O1 if-converted and split", p)
	}
	t.Logf("compared %d functions", funcs)
}

func TestRegSetMembersAndCount(t *testing.T) {
	s := NewRegSet(200)
	want := []Reg{0, 1, 63, 64, 65, 127, 128, 199}
	for _, r := range want {
		s.Add(r)
	}
	s.Add(NoReg)
	if got := s.Members(); !reflect.DeepEqual(got, want) {
		t.Errorf("Members = %v, want %v", got, want)
	}
	if s.Count() != len(want) {
		t.Errorf("Count = %d, want %d", s.Count(), len(want))
	}
	if got := NewRegSet(200).Members(); got != nil {
		t.Errorf("Members of the empty set = %v, want nil", got)
	}
}

// TestCloneIsDeep: lowering consumes the clone (wavec.Compile's two CFG
// passes run here; cfgir cannot import wavec) and then every instruction
// of it is overwritten, and the original neither changes nor shares an
// instruction or argument backing array with it.
func TestCloneIsDeep(t *testing.T) {
	for _, s := range referenceCorpus(10) {
		p := mustFromSource(t, s, 4, 1)
		before := p.String()
		c := p.Clone()
		if c.String() != before {
			t.Fatalf("%s: clone renders differently from the original", s)
		}
		for fi, f := range c.Funcs {
			orig := p.Funcs[fi]
			if f == orig || (len(f.Params) > 0 && &f.Params[0] == &orig.Params[0]) {
				t.Fatalf("%s: %s: function or its parameter list is shared", s, f.Name)
			}
			for bi, b := range f.Blocks {
				ob := orig.Blocks[bi]
				if b == ob || (len(b.Instrs) > 0 && &b.Instrs[0] == &ob.Instrs[0]) {
					t.Fatalf("%s: %s b%d: block or its instructions are shared", s, f.Name, bi)
				}
				for ii := range b.Instrs {
					if a, oa := b.Instrs[ii].Args, ob.Instrs[ii].Args; len(a) > 0 && &a[0] == &oa[0] {
						t.Fatalf("%s: %s b%d: call arguments are shared", s, f.Name, bi)
					}
				}
			}
			f.IfConvert()
			f.SplitCriticalEdges()
			for _, b := range f.Blocks {
				for ii := range b.Instrs {
					in := &b.Instrs[ii]
					for ai := range in.Args {
						in.Args[ai] = NoReg
					}
					in.Kind, in.Dst, in.A, in.B, in.C = KConst, NoReg, NoReg, NoReg, NoReg
				}
				b.Term = Term{Kind: TRet, Val: NoReg}
			}
			f.NewBlock()
			f.NewReg()
		}
		if p.String() != before {
			t.Errorf("%s: rewriting the clone changed the original", s)
		}
	}
}

// TestFromSourceReportsUnrolling: the flag is what lets a caller skip the
// factor-1 build, so it must be false exactly when the IR equals it.
func TestFromSourceReportsUnrolling(t *testing.T) {
	loop := "global a[8];\nfunc main() { var s = 0; for var i = 0; i < 8; i = i + 1 { a[i] = i; s = s + a[i]; } return s; }"
	noLoop := "func f(n) { if n <= 0 { return 0; } return n + f(n - 1); }\nfunc main() { var i = 0; while i < 3 { i = i + 1; } return f(i); }"
	for _, tc := range []struct {
		name, src string
		unroll    int
		want      bool
	}{
		{"counted loop, factor 4", loop, 4, true},
		{"counted loop, factor 1", loop, 1, false},
		{"counted loop, factor 0", loop, 0, false},
		{"no counted loop, factor 4", noLoop, 4, false},
	} {
		p, _, unrolled, err := FromSource(tc.src, tc.unroll, 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if unrolled != tc.want {
			t.Errorf("%s: unrolled = %v, want %v", tc.name, unrolled, tc.want)
		}
		rolled, _, _, err := FromSource(tc.src, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if same := p.String() == rolled.String(); same == tc.want {
			t.Errorf("%s: IR equals the factor-1 build = %v, unrolled = %v", tc.name, same, unrolled)
		}
	}
	if _, _, _, err := FromSource("func main() { return x; }", 4, 1); err == nil || !strings.HasPrefix(err.Error(), "frontend: ") {
		t.Errorf("front-end error not labelled with its stage: %v", err)
	}
}

// benchSubjects are the layer benchmarks' inputs: the "mixed"-family
// program of testprogs.CorpusSpecs(100, 1) with the largest function (728
// instructions as built at unroll 4), where a pass that is not linear in
// the block shows, and ammp, the kernel the memory tier does most for.
var benchSubjects = []string{"gen:mixed:3745987421742060995", "ammp"}

func largestFunc(p *Program) (fi, instrs int) {
	for i, f := range p.Funcs {
		n := 0
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
		if n > instrs {
			fi, instrs = i, n
		}
	}
	return fi, instrs
}

// benchPass times pass on a fresh copy of the IR at optLevel per iteration
// (the passes rewrite their input; cloning is outside the timer). It counts
// to b.N itself: go1.24's b.Loop never finishes at the default -benchtime
// when the body stops and restarts the timer.
func benchPass(b *testing.B, optLevel int, pass func(*Program)) {
	for _, s := range benchSubjects {
		p := mustFromSource(b, s, 4, optLevel)
		b.Run(s, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := p.Clone()
				b.StartTimer()
				pass(c)
			}
		})
	}
}

func BenchmarkOptimize(b *testing.B) {
	benchPass(b, OptNone, func(p *Program) { p.Optimize() })
}

func BenchmarkOptimizeMemory(b *testing.B) {
	benchPass(b, 0, func(p *Program) { p.OptimizeMemory() })
}

// BenchmarkLocalCSE runs the pass over every block of the largest
// function, as built (the move-heavy form the first optimizer round sees),
// on one scratch as Optimize does.
func BenchmarkLocalCSE(b *testing.B) {
	benchPass(b, OptNone, func(p *Program) {
		var sc optScratch
		fi, _ := largestFunc(p)
		f := p.Funcs[fi]
		for _, blk := range f.Blocks {
			sc.localCSE(f, blk)
		}
	})
}

var sinkLive []RegSet

func BenchmarkLiveness(b *testing.B) {
	for _, s := range benchSubjects {
		p := mustFromSource(b, s, 4, OptNone)
		fi, _ := largestFunc(p)
		b.Run(s, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sinkLive, _ = p.Funcs[fi].Liveness()
			}
		})
	}
}
