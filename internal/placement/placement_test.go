package placement

import (
	"testing"
	"testing/quick"

	"wavescalar/internal/cfgir"
	"wavescalar/internal/isa"
	"wavescalar/internal/lang"
	"wavescalar/internal/profile"
	"wavescalar/internal/wavec"
)

func testProgram(t *testing.T) *isa.Program {
	t.Helper()
	src := `func helper(x) { return x * 3 + 1; } func main() { var s = 0; for var i = 0; i < 10; i = i + 1 { s = s + helper(i); } return s; }`
	f, err := lang.ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfgir.Build(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range p.Funcs {
		fn.Compact()
	}
	p.Optimize()
	wp, err := wavec.Compile(p, wavec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return wp
}

// must unwraps a constructor whose machine the test knows to be valid.
func must(pol Policy, err error) Policy {
	if err != nil {
		panic(err)
	}
	return pol
}

func TestMachineGeometry(t *testing.T) {
	m := DefaultMachine(4, 4)
	if m.NumClusters() != 16 || PEsPerCluster != 32 || m.NumPEs() != 512 {
		t.Fatalf("geometry: clusters=%d pes/cluster=%d pes=%d",
			m.NumClusters(), PEsPerCluster, m.NumPEs())
	}
	// Loc must be a bijection onto valid coordinates.
	seen := make(map[[3]int]bool)
	for pe := 0; pe < m.NumPEs(); pe++ {
		l := m.Loc(pe)
		if l.Cluster < 0 || l.Cluster >= 16 || l.Domain < 0 || l.Domain >= 4 || l.Pod < 0 || l.Pod >= 4 {
			t.Fatalf("PE %d has invalid loc %+v", pe, l)
		}
		seen[[3]int{l.Cluster, l.Domain, l.Pod}] = true
	}
	// 2 PEs share each pod, so distinct (cluster,domain,pod) = NumPEs/2.
	if len(seen) != m.NumPEs()/2 {
		t.Fatalf("loc coverage %d, want %d", len(seen), m.NumPEs()/2)
	}
}

func TestSnakeIsPermutationAndLocal(t *testing.T) {
	m := DefaultMachine(3, 3)
	seen := make(map[int]bool)
	prevCluster := -1
	for i := 0; i < m.NumPEs(); i++ {
		pe := m.SnakePE(i)
		if seen[pe] {
			t.Fatalf("snake repeats PE %d at step %d", pe, i)
		}
		seen[pe] = true
		c := m.Loc(pe).Cluster
		if prevCluster >= 0 && c != prevCluster {
			// Consecutive snake clusters must be mesh neighbours.
			dx := abs(c%3 - prevCluster%3)
			dy := abs(c/3 - prevCluster/3)
			if dx+dy != 1 {
				t.Fatalf("snake jumps from cluster %d to %d", prevCluster, c)
			}
		}
		prevCluster = c
	}
	if len(seen) != m.NumPEs() {
		t.Fatalf("snake covered %d PEs, want %d", len(seen), m.NumPEs())
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestPoliciesAreStableAndInRange(t *testing.T) {
	wp := testProgram(t)
	m := DefaultMachine(2, 2)
	m.Capacity = 4
	for _, name := range Names() {
		pol, err := New(name, m, wp, 42)
		if err != nil {
			t.Fatal(err)
		}
		if pol.Name() != name {
			t.Errorf("%s: Name() = %q", name, pol.Name())
		}
		assignments := make(map[profile.InstrRef]int)
		for fi := range wp.Funcs {
			for ii := range wp.Funcs[fi].Instrs {
				ref := profile.InstrRef{Func: isa.FuncID(fi), Instr: isa.InstrID(ii)}
				pe := pol.Assign(ref)
				if pe < 0 || pe >= m.NumPEs() {
					t.Fatalf("%s: PE %d out of range", name, pe)
				}
				assignments[ref] = pe
			}
		}
		// Assign must be idempotent.
		for ref, pe := range assignments {
			if got := pol.Assign(ref); got != pe {
				t.Errorf("%s: assignment of %v moved %d -> %d", name, ref, pe, got)
			}
		}
	}
}

func TestDynamicSnakePacksInOrder(t *testing.T) {
	m := DefaultMachine(1, 1)
	m.Capacity = 2
	pol := must(NewDynamicSnake(m))
	r := func(i int) profile.InstrRef { return profile.InstrRef{Func: 0, Instr: isa.InstrID(i)} }
	// First two references share PE snake(0); next two share snake(1).
	p0, p1, p2, p3 := pol.Assign(r(10)), pol.Assign(r(5)), pol.Assign(r(99)), pol.Assign(r(1))
	if p0 != p1 || p2 != p3 || p0 == p2 {
		t.Fatalf("packing wrong: %d %d %d %d", p0, p1, p2, p3)
	}
	if p0 != m.SnakePE(0) || p2 != m.SnakePE(1) {
		t.Fatalf("fill order not snake order: %d %d", p0, p2)
	}
}

func TestDepthFirstKeepsChainsTogether(t *testing.T) {
	wp := testProgram(t)
	m := DefaultMachine(4, 4) // plenty of room
	pol := must(NewDepthFirstSnake(m, wp))
	// A producer and its first consumer should usually share a PE. Count
	// how many dataflow edges stay intra-PE and require a majority.
	intra, total := 0, 0
	for fi := range wp.Funcs {
		f := &wp.Funcs[fi]
		for ii := range f.Instrs {
			src := pol.Assign(profile.InstrRef{Func: isa.FuncID(fi), Instr: isa.InstrID(ii)})
			dests, _ := f.Out(&f.Instrs[ii])
			for _, d := range dests {
				dst := pol.Assign(profile.InstrRef{Func: isa.FuncID(fi), Instr: d.Instr})
				total++
				if src == dst {
					intra++
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no edges")
	}
	frac := float64(intra) / float64(total)
	if frac < 0.25 {
		t.Errorf("depth-first chains keep only %.0f%% of edges intra-PE", frac*100)
	}

	// Random placement on the same program should do much worse.
	rnd := must(NewRandom(m, 7))
	rintra := 0
	for fi := range wp.Funcs {
		f := &wp.Funcs[fi]
		for ii := range f.Instrs {
			src := rnd.Assign(profile.InstrRef{Func: isa.FuncID(fi), Instr: isa.InstrID(ii)})
			dests, _ := f.Out(&f.Instrs[ii])
			for _, d := range dests {
				if src == rnd.Assign(profile.InstrRef{Func: isa.FuncID(fi), Instr: d.Instr}) {
					rintra++
				}
			}
		}
	}
	if rintra >= intra {
		t.Errorf("random placement (%d intra-PE edges) beats depth-first (%d)", rintra, intra)
	}
}

func TestDynamicDFSPlacesWholeChain(t *testing.T) {
	wp := testProgram(t)
	m := DefaultMachine(1, 1)
	m.Capacity = 8
	pol := must(NewDynamicDFS(m, wp)).(*policy)
	pol.Assign(profile.InstrRef{Func: wp.Entry, Instr: 0})
	c := pol.chains[wp.Entry]
	chain := c.order[c.span[0][0]:c.span[0][1]]
	if len(chain) < 2 {
		t.Fatalf("instruction 0's chain is %v, want several members", chain)
	}
	onChain := make(map[isa.InstrID]bool)
	for _, id := range chain {
		onChain[id] = true
	}
	for id, home := range pol.homes[wp.Entry] {
		if placed := home >= 0; placed != onChain[isa.InstrID(id)] {
			t.Fatalf("i%d: placed = %v, on instruction 0's chain = %v", id, placed, onChain[isa.InstrID(id)])
		}
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	m := DefaultMachine(2, 2)
	prop := func(seed uint64, instr uint8) bool {
		a := must(NewRandom(m, seed))
		b := must(NewRandom(m, seed))
		ref := profile.InstrRef{Func: 0, Instr: isa.InstrID(instr)}
		return a.Assign(ref) == b.Assign(ref)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackedRandomFills(t *testing.T) {
	m := DefaultMachine(2, 1)
	m.Capacity = 4
	pol := must(NewPackedRandom(m, 99))
	counts := make(map[int]int)
	for i := 0; i < 4*m.NumPEs(); i++ {
		pe := pol.Assign(profile.InstrRef{Func: 0, Instr: isa.InstrID(i)})
		counts[pe]++
	}
	// Exactly Capacity instructions per PE when fully filled.
	for pe, n := range counts {
		if n != 4 {
			t.Errorf("PE %d holds %d homes, want 4", pe, n)
		}
	}
	if len(counts) != m.NumPEs() {
		t.Errorf("used %d PEs, want %d", len(counts), m.NumPEs())
	}
}

func TestNewUnknownPolicy(t *testing.T) {
	if _, err := New("nope", DefaultMachine(1, 1), nil, 0); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestFillWrapsAround(t *testing.T) {
	m := DefaultMachine(1, 1)
	m.Capacity = 1
	pol := must(NewDynamicSnake(m))
	n := m.NumPEs()
	first := pol.Assign(profile.InstrRef{Func: 0, Instr: 0})
	for i := 1; i < n; i++ {
		pol.Assign(profile.InstrRef{Func: 0, Instr: isa.InstrID(i)})
	}
	wrapped := pol.Assign(profile.InstrRef{Func: 0, Instr: isa.InstrID(n)})
	if wrapped != first {
		t.Errorf("fill did not wrap: first=%d wrapped=%d", first, wrapped)
	}
}
