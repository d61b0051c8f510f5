// Package placement implements instruction placement for the WaveCache:
// the policy that chooses which processing element becomes each static
// instruction's home. The MICRO 2003 WaveCache binds instructions to PEs
// dynamically, in the order execution first references them, filling PEs
// along a "snake" path through the grid; the follow-on placement work
// (SPAA 2006) names this dynamic-snake and compares it against static,
// depth-first, random, and combined variants. All of them are one fill that
// differs in which order instructions reach it and when, and all of them
// are one type here (policy).
package placement

import (
	"fmt"
	"slices"

	"wavescalar/internal/fault"
	"wavescalar/internal/isa"
	"wavescalar/internal/noc"
	"wavescalar/internal/profile"
)

// The published cluster: 4 domains of 4 pods of 2 PEs.
const (
	DomainsPerCluster = 4
	PodsPerDomain     = 4
	PEsPerPod         = 2
	PEsPerCluster     = DomainsPerCluster * PodsPerDomain * PEsPerPod
)

// Machine describes the PE topology placement targets: a grid of the
// published clusters.
type Machine struct {
	GridW, GridH int
	// Capacity is the number of instruction homes a policy packs per PE
	// before moving on (normally the PE instruction-store size).
	Capacity int

	// Defective marks PEs dead at configuration time (manufacturing
	// defects): policies treat them as non-placeable and route around
	// them. nil means a fully working machine. fault.DefectMap derives a
	// deterministic map from a fault seed; New validates that at least
	// one PE remains usable. Policies copy this slice at construction, so
	// callers may reuse the Machine value freely.
	Defective []bool
}

// UsablePEs counts the PEs available for placement.
func (m Machine) UsablePEs() int {
	n := m.NumPEs()
	for _, d := range m.Defective {
		if d {
			n--
		}
	}
	return n
}

// DefaultMachine returns the published topology, 64-instruction PE stores,
// on a w x h cluster grid.
func DefaultMachine(w, h int) Machine {
	return Machine{GridW: w, GridH: h, Capacity: 64}
}

// NumClusters returns the cluster count.
func (m Machine) NumClusters() int { return m.GridW * m.GridH }

// NumPEs returns the total PE count.
func (m Machine) NumPEs() int { return m.NumClusters() * PEsPerCluster }

// Loc maps a PE index to its place in the communication hierarchy.
func (m Machine) Loc(pe int) noc.Loc {
	rem := pe % PEsPerCluster
	return noc.Loc{
		Cluster: pe / PEsPerCluster,
		Domain:  rem / (PodsPerDomain * PEsPerPod),
		Pod:     rem % (PodsPerDomain * PEsPerPod) / PEsPerPod,
	}
}

// SnakePE returns the i-th PE along the snake path: PEs sequential within a
// cluster, clusters visited in boustrophedon row order so consecutive
// clusters are always mesh neighbours.
func (m Machine) SnakePE(i int) int {
	ci := i / PEsPerCluster
	row := ci / m.GridW
	col := ci % m.GridW
	if row%2 == 1 {
		col = m.GridW - 1 - col
	}
	return (row*m.GridW+col)*PEsPerCluster + i%PEsPerCluster
}

// Policy assigns a home PE to each static instruction. Assign is called
// once per instruction, the first time the simulator needs its home; the
// call order is the dynamic first-reference order, which dynamic policies
// exploit.
type Policy interface {
	Name() string
	Assign(ref profile.InstrRef) int
}

// Reconfigurable policies support fault-aware re-placement: MarkDefective
// withdraws a PE mid-run (a hard fault detected by the machine), evicting
// its instruction homes, and the next Assign for an evicted instruction
// migrates it to a live PE. Marking the last usable PE defective is refused
// with an error — that machine cannot execute anything. All built-in
// policies implement this interface.
type Reconfigurable interface {
	MarkDefective(pe int) error
}

// validateMachine rejects machines no policy can place onto: a degenerate
// topology, a defect map that does not match the PE count, or one that
// leaves no PE usable. Every constructor calls it, so a successfully
// constructed policy always has at least one usable PE — the invariant
// that keeps Assign total. Failures are structured configuration faults.
func validateMachine(m Machine) error {
	if m.NumPEs() < 1 {
		return &fault.FaultError{Kind: fault.KindConfig, PE: -1,
			Detail: fmt.Sprintf("placement: machine has no PEs (%dx%d grid, %d per cluster)",
				m.GridW, m.GridH, PEsPerCluster)}
	}
	if m.Capacity < 1 {
		return &fault.FaultError{Kind: fault.KindConfig, PE: -1,
			Detail: fmt.Sprintf("placement: non-positive PE capacity %d", m.Capacity)}
	}
	if m.Defective != nil {
		if len(m.Defective) != m.NumPEs() {
			return &fault.FaultError{Kind: fault.KindConfig, PE: -1,
				Detail: fmt.Sprintf("placement: defect map has %d entries for %d PEs",
					len(m.Defective), m.NumPEs())}
		}
		if m.UsablePEs() == 0 {
			return &fault.FaultError{Kind: fault.KindConfig, PE: -1,
				Detail: fmt.Sprintf("placement: no usable PEs (all %d defective)", m.NumPEs())}
		}
	}
	return nil
}

// fill hands out instruction homes. Along an order of the PEs (the snake,
// or a seeded permutation of it) it packs Capacity homes per PE, wrapping
// when the machine is exhausted; with no order it draws PEs uniformly from
// rng. Either way it never returns a defective PE.
type fill struct {
	m     Machine
	order func(i int) int // nil: a uniform draw
	next  int             // slots handed out along order
	rng   uint64
	// defective is the policy's own defect map (config-time defects plus
	// mid-run kills); policy-owned so Machine values stay shareable.
	defective []bool
	usable    int
}

// step advances the generator behind random's draws and packed-random's
// permutation.
func step(state *uint64) uint64 {
	*state = *state*6364136223846793005 + 1442695040888963407
	return *state >> 33
}

// take allocates the next instruction home. At least one usable PE is
// guaranteed by validateMachine (at construction) and markDefective
// (mid-run), which bounds the scans; should that invariant ever break, take
// falls back to a deterministic linear scan for any live PE rather than
// panicking, so a library bug degrades a result instead of crashing the
// caller's process.
func (f *fill) take() int {
	n := f.m.NumPEs()
	if f.order == nil {
		// Rejection-sample a live PE; after a bounded number of draws fall
		// back to a linear scan so a heavily defective machine still assigns
		// in O(NumPEs) deterministically.
		for draws := 0; ; draws++ {
			pe := int(step(&f.rng) % uint64(n))
			if !f.defective[pe] {
				return pe
			}
			if draws >= 64 {
				for f.defective[pe] {
					pe = (pe + 1) % n
				}
				return pe
			}
		}
	}
	// A dead PE is skipped by jumping to the next PE boundary along the order.
	for skips := 0; skips <= n; skips++ {
		pe := f.order((f.next / f.m.Capacity) % n)
		if f.defective[pe] {
			f.next = (f.next/f.m.Capacity + 1) * f.m.Capacity
			continue
		}
		f.next++
		return pe
	}
	for pe := 0; pe < n; pe++ {
		if !f.defective[pe] {
			return pe
		}
	}
	return 0
}

// markDefective withdraws a PE, reporting whether it was live until now.
func (f *fill) markDefective(pe int) (bool, error) {
	if pe < 0 || pe >= f.m.NumPEs() {
		return false, fmt.Errorf("placement: PE %d out of range [0,%d)", pe, f.m.NumPEs())
	}
	if f.defective[pe] {
		return false, nil
	}
	if f.usable <= 1 {
		return false, fmt.Errorf("placement: cannot mark PE %d defective: no usable PEs would remain", pe)
	}
	f.defective[pe] = true
	f.usable--
	return true, nil
}

// dfsChains decomposes a function's dataflow graph into producer/consumer
// chains by depth-first search: each chain is a path of dependent
// instructions that should share a PE so their operands ride the free
// intra-pod bypass. It returns the function's instructions listed chain
// after chain, and for each instruction the [lo, hi) span of its chain in
// that list.
func dfsChains(f *isa.Function) (order []isa.InstrID, span [][2]int32) {
	order = make([]isa.InstrID, 0, len(f.Instrs))
	span = make([][2]int32, len(f.Instrs))
	visited := make([]bool, len(f.Instrs))
	for ii := range f.Instrs {
		if visited[ii] {
			continue
		}
		lo := len(order)
		// Follow the first unvisited consumer until there is none.
		for id := isa.InstrID(ii); id != isa.NoInstr; {
			visited[id] = true
			order = append(order, id)
			dests, destsFalse := f.Out(&f.Instrs[id])
			id = isa.NoInstr
		consumers:
			for _, lst := range [2][]isa.Dest{dests, destsFalse} {
				for _, d := range lst {
					if !visited[d.Instr] {
						id = d.Instr
						break consumers
					}
				}
			}
		}
		for _, id := range order[lo:] {
			span[id] = [2]int32{int32(lo), int32(len(order))}
		}
	}
	return order, span
}

// policy is every built-in policy: a home table filled from one fill. The
// policies differ in where fill's next home comes from (its order), in
// whether homes are handed out at construction or on first reference
// (which constructor pre-fills the table, and in which instruction order),
// and in whether a first reference places one instruction or its whole DFS
// chain (chains).
type policy struct {
	name string
	fill
	// homes[fn][instr] is the instruction's home PE, -1 while it has none.
	// A constructor given the program sizes the table from it; references
	// beyond the table grow it.
	homes [][]int32
	// chains, when set, is each function's dfsChains: a first reference
	// places every unplaced member of the instruction's chain.
	chains []funcChains
}

type funcChains struct {
	order []isa.InstrID
	span  [][2]int32
}

// newPolicy validates the machine and builds a policy that fills along the
// snake on first reference, its table sized for prog (nil: empty).
func newPolicy(name string, m Machine, prog *isa.Program) (*policy, error) {
	if err := validateMachine(m); err != nil {
		return nil, err
	}
	p := &policy{name: name, fill: fill{m: m, order: m.SnakePE,
		defective: make([]bool, m.NumPEs()), usable: m.UsablePEs()}}
	copy(p.defective, m.Defective)
	if prog != nil {
		p.homes = make([][]int32, len(prog.Funcs))
		for fi := range prog.Funcs {
			p.row(isa.FuncID(fi), len(prog.Funcs[fi].Instrs))
		}
	}
	return p, nil
}

// row returns function fn's homes, grown to hold at least n instructions.
func (p *policy) row(fn isa.FuncID, n int) []int32 {
	for int(fn) >= len(p.homes) {
		p.homes = append(p.homes, nil)
	}
	row := p.homes[fn]
	if len(row) < n {
		row = slices.Grow(row, n-len(row))
		for len(row) < n {
			row = append(row, -1)
		}
		p.homes[fn] = row
	}
	return row
}

func (p *policy) Name() string { return p.name }

func (p *policy) Assign(ref profile.InstrRef) int {
	row := p.row(ref.Func, int(ref.Instr)+1)
	if row[ref.Instr] >= 0 {
		return int(row[ref.Instr])
	}
	// Unplaced: a first reference, or a home evicted by a PE death.
	if int(ref.Func) < len(p.chains) && int(ref.Instr) < len(p.chains[ref.Func].span) {
		c := &p.chains[ref.Func]
		for _, id := range c.order[c.span[ref.Instr][0]:c.span[ref.Instr][1]] {
			if row[id] < 0 {
				row[id] = int32(p.take())
			}
		}
	} else {
		row[ref.Instr] = int32(p.take())
	}
	return int(row[ref.Instr])
}

// MarkDefective withdraws every home on the dead PE, so the next Assign of
// each re-places it.
func (p *policy) MarkDefective(pe int) error {
	wasLive, err := p.markDefective(pe)
	if !wasLive {
		return err
	}
	for _, row := range p.homes {
		for i, home := range row {
			if int(home) == pe {
				row[i] = -1
			}
		}
	}
	return nil
}

// NewDynamicSnake fills PEs along the snake in dynamic first-reference
// order: the MICRO 2003 WaveCache's own policy. PEs hold only instructions
// that actually execute, which the SPAA 2006 study found best for PE
// contention.
func NewDynamicSnake(m Machine) (Policy, error) {
	p, err := newPolicy("dynamic-snake", m, nil)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// NewStaticSnake packs instructions along the snake in static program
// order, whether or not they ever execute.
func NewStaticSnake(m Machine, prog *isa.Program) (Policy, error) {
	p, err := newPolicy("static-snake", m, prog)
	if err != nil {
		return nil, err
	}
	for _, row := range p.homes {
		for i := range row {
			row[i] = int32(p.take())
		}
	}
	return p, nil
}

// NewDepthFirstSnake places DFS chains contiguously along the snake in
// static chain order: the best policy for operand latency in the SPAA 2006
// study.
func NewDepthFirstSnake(m Machine, prog *isa.Program) (Policy, error) {
	p, err := newPolicy("depth-first-snake", m, prog)
	if err != nil {
		return nil, err
	}
	for fi, row := range p.homes {
		order, _ := dfsChains(&prog.Funcs[fi])
		for _, id := range order {
			row[id] = int32(p.take())
		}
	}
	return p, nil
}

// NewDynamicDFS is the improved algorithm of the placement study:
// instructions are grouped into DFS chains (like depth-first-snake) but
// chains are packed into PEs in dynamic first-reference order (like
// dynamic-snake), so PEs hold only chains that execute and dependent
// instructions still share the bypass network.
func NewDynamicDFS(m Machine, prog *isa.Program) (Policy, error) {
	p, err := newPolicy("dynamic-depth-first-snake", m, prog)
	if err != nil {
		return nil, err
	}
	p.chains = make([]funcChains, len(p.homes))
	for fi := range p.chains {
		p.chains[fi].order, p.chains[fi].span = dfsChains(&prog.Funcs[fi])
	}
	return p, nil
}

// NewRandom scatters instructions uniformly over the usable PEs, in
// first-reference order.
func NewRandom(m Machine, seed uint64) (Policy, error) {
	p, err := newPolicy("random", m, nil)
	if err != nil {
		return nil, err
	}
	p.order, p.rng = nil, seed|1
	return p, nil
}

// NewPackedRandom fills PEs densely (capacity-aware like dynamic-snake) but
// visits PEs in a seeded random permutation, destroying locality while
// keeping packing.
func NewPackedRandom(m Machine, seed uint64) (Policy, error) {
	p, err := newPolicy("packed-random", m, nil)
	if err != nil {
		return nil, err
	}
	perm := make([]int, m.NumPEs())
	for i := range perm {
		perm[i] = i
	}
	state := seed | 1
	for i := len(perm) - 1; i > 0; i-- {
		j := int(step(&state) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	p.order = func(i int) int { return perm[i] }
	return p, nil
}

// policies is the ordered table New and Names share; each constructor
// receives exactly New's arguments.
var policies = []struct {
	name string
	ctor func(m Machine, prog *isa.Program, seed uint64) (Policy, error)
}{
	{"dynamic-snake", func(m Machine, _ *isa.Program, _ uint64) (Policy, error) { return NewDynamicSnake(m) }},
	{"static-snake", func(m Machine, p *isa.Program, _ uint64) (Policy, error) { return NewStaticSnake(m, p) }},
	{"depth-first-snake", func(m Machine, p *isa.Program, _ uint64) (Policy, error) { return NewDepthFirstSnake(m, p) }},
	{"dynamic-depth-first-snake", func(m Machine, p *isa.Program, _ uint64) (Policy, error) { return NewDynamicDFS(m, p) }},
	{"random", func(m Machine, _ *isa.Program, seed uint64) (Policy, error) { return NewRandom(m, seed) }},
	{"packed-random", func(m Machine, _ *isa.Program, seed uint64) (Policy, error) { return NewPackedRandom(m, seed) }},
}

// New constructs a policy by name; prog may be nil for policies that do not
// inspect the program. The machine is validated by the constructor: a
// defect map must match the PE count and leave at least one PE usable, so
// an all-defective grid is a structured configuration error here rather
// than a failure mid-placement.
func New(name string, m Machine, prog *isa.Program, seed uint64) (Policy, error) {
	for _, p := range policies {
		if p.name == name {
			return p.ctor(m, prog, seed)
		}
	}
	return nil, fmt.Errorf("placement: unknown policy %q", name)
}

// Names lists the available policies in table order.
func Names() []string {
	out := make([]string, len(policies))
	for i, p := range policies {
		out[i] = p.name
	}
	return out
}
