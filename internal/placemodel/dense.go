package placemodel

import (
	"fmt"
	"slices"

	"wavescalar/internal/profile"
)

// peLoc is Machine.Loc plus the cluster's mesh coordinates, computed once
// per PE so Equation 1 is a few integer compares per operand edge.
type peLoc struct {
	cluster, domain, pod int
	x, y                 int
}

// edge is one profiled operand edge as seen from one of its endpoints.
type edge struct {
	peer   int32   // dense index of the other endpoint
	tokens float64 // operands profiled along the edge
}

// state is the model over one (profile, layout) pair in dense form: the
// laid-out instructions are numbered 0..N-1 in sorted InstrRef order, cache
// lines 0..L-1, and every per-move quantity lives in a slice. It holds the
// running sums behind the three components, so Evaluate is "build, read"
// and Optimize is "build, then move one instruction at a time": a move
// touches the mover's incident edges, its cache lines (only when the
// cluster changes) and two PEs. Every sum is integer-valued under the
// paper's latencies (0 / 4 / 7 / 7+hops times token counts; misses;
// excess instructions), so float64 addition is exact and order-independent
// below 2^53 and the deltas reproduce a from-scratch evaluation bit for
// bit. A Config with fractional latencies would still be evaluated
// consistently, only no longer bit-equal to a differently ordered sum.
type state struct {
	cfg  Config
	loc  []peLoc            // per PE
	refs []profile.InstrRef // dense index -> instruction, sorted
	pe   []int              // dense index -> home PE

	// Operand traffic, CSR by instruction: edges[edgeStart[i]:edgeStart[i+1]]
	// are i's edges to other laid-out instructions, each edge listed at
	// both endpoints.
	edgeStart []int32
	edges     []edge

	// Memory behaviour, CSR by instruction: the dense ids of the lines
	// instruction i touched. touch[line*clusters+c] counts the laid-out
	// instructions homed in cluster c that touch the line.
	lineStart []int32
	lines     []int32
	clusters  int
	touch     []int32

	occ []int32 // laid-out instructions per PE

	latency    float64 // Equation 2
	misses     float64 // Equations 3–4 numerator: (line, cluster) pairs in use
	accesses   float64 // Equations 3–4 denominator; layout-independent
	contention float64 // Equation 5
}

// newState indexes the profile against the layout and evaluates all three
// components once. Traffic edges and MemBlocks entries naming an
// instruction outside the layout are skipped; a self edge never leaves its
// pod, so it contributes a placement-independent constant.
func newState(cfg Config, prof *profile.Profile, l Layout) *state {
	m := cfg.Machine
	npes := m.NumPEs()
	s := &state{
		cfg:      cfg,
		loc:      make([]peLoc, npes),
		refs:     sortedRefs(l),
		pe:       make([]int, len(l)),
		clusters: m.NumClusters(),
		occ:      make([]int32, npes),
	}
	for pe := range s.loc {
		at := m.Loc(pe)
		s.loc[pe] = peLoc{
			cluster: at.Cluster, domain: at.Domain, pod: at.Pod,
			x: at.Cluster % m.GridW, y: at.Cluster / m.GridW,
		}
	}

	index := make(map[profile.InstrRef]int32, len(l))
	for i, r := range s.refs {
		pe := l[r]
		if pe < 0 || pe >= npes {
			panic(fmt.Sprintf("placemodel: layout homes %v at PE %d, outside the machine's %d PEs", r, pe, npes))
		}
		index[r] = int32(i)
		s.pe[i] = pe
		s.occupy(pe)
	}

	// Operand edges: count degrees, then fill.
	n := len(s.refs)
	s.edgeStart = make([]int32, n+1)
	type pair struct {
		a, b   int32
		tokens float64
	}
	pairs := make([]pair, 0, len(prof.Traffic))
	for e, tokens := range prof.Traffic {
		a, oka := index[e.From]
		b, okb := index[e.To]
		if !oka || !okb {
			continue
		}
		t := float64(tokens)
		s.latency += t * s.pairLatency(s.pe[a], s.pe[b])
		if a == b {
			continue
		}
		pairs = append(pairs, pair{a, b, t})
		s.edgeStart[a+1]++
		s.edgeStart[b+1]++
	}
	for i := 0; i < n; i++ {
		s.edgeStart[i+1] += s.edgeStart[i]
	}
	s.edges = make([]edge, 2*len(pairs))
	fill := slices.Clone(s.edgeStart[:n])
	for _, p := range pairs {
		s.edges[fill[p.a]] = edge{peer: p.b, tokens: p.tokens}
		fill[p.a]++
		s.edges[fill[p.b]] = edge{peer: p.a, tokens: p.tokens}
		fill[p.b]++
	}

	// Cache lines.
	s.lineStart = make([]int32, n+1)
	lineID := make(map[int64]int32)
	var accesses uint64
	for i, r := range s.refs {
		for line, count := range prof.MemBlocks[r] {
			id, ok := lineID[line]
			if !ok {
				id = int32(len(lineID))
				lineID[line] = id
			}
			s.lines = append(s.lines, id)
			accesses += count
		}
		s.lineStart[i+1] = int32(len(s.lines))
	}
	s.accesses = float64(accesses)
	s.touch = make([]int32, len(lineID)*s.clusters)
	for i := range s.refs {
		s.touchLines(i, s.loc[s.pe[i]].cluster)
	}
	return s
}

// pairLatency is Equation 1: the operand latency between two PEs.
func (s *state) pairLatency(peA, peB int) float64 {
	a, b := &s.loc[peA], &s.loc[peB]
	switch {
	case a.cluster != b.cluster:
		hops := abs(a.x-b.x) + abs(a.y-b.y)
		return s.cfg.MeshBase + s.cfg.MeshPerHop*float64(hops)
	case a.domain != b.domain:
		return s.cfg.ClusterLatency
	case a.pod != b.pod:
		return s.cfg.DomainLatency
	default:
		return s.cfg.PodLatency
	}
}

// occupy and vacate are Equation 5 one instruction at a time: every
// instruction at a PE beyond its storage capacity counts once.
func (s *state) occupy(pe int) {
	s.occ[pe]++
	if int(s.occ[pe]) > s.cfg.PECapacity {
		s.contention++
	}
}

func (s *state) vacate(pe int) {
	if int(s.occ[pe]) > s.cfg.PECapacity {
		s.contention--
	}
	s.occ[pe]--
}

// touchLines and untouchLines are Equations 3–4's numerator under the
// migratory-sharing assumption: a line accessed from C > 1 clusters misses
// C times (one migration per cluster) and a private line misses once
// (cold), i.e. one miss per (line, cluster) pair that any laid-out
// instruction realizes.
func (s *state) touchLines(i, cluster int) {
	for _, line := range s.lines[s.lineStart[i]:s.lineStart[i+1]] {
		t := &s.touch[int(line)*s.clusters+cluster]
		if *t == 0 {
			s.misses++
		}
		*t++
	}
}

func (s *state) untouchLines(i, cluster int) {
	for _, line := range s.lines[s.lineStart[i]:s.lineStart[i+1]] {
		t := &s.touch[int(line)*s.clusters+cluster]
		*t--
		if *t == 0 {
			s.misses--
		}
	}
}

// move re-homes instruction i, updating the three sums by their deltas:
// Equation 2 over i's incident edges, Equations 3–4 over i's lines when the
// cluster changes, Equation 5 for the two PEs. It allocates nothing.
func (s *state) move(i, to int) {
	from := s.pe[i]
	delta := 0.0
	for _, e := range s.edges[s.edgeStart[i]:s.edgeStart[i+1]] {
		peer := s.pe[e.peer]
		delta += e.tokens * (s.pairLatency(to, peer) - s.pairLatency(from, peer))
	}
	s.latency += delta
	if was, now := s.loc[from].cluster, s.loc[to].cluster; was != now {
		s.untouchLines(i, was)
		s.touchLines(i, now)
	}
	s.vacate(from)
	s.occupy(to)
	s.pe[i] = to
}

// components reads the three metrics off the running sums.
func (s *state) components() Components {
	c := Components{Latency: s.latency, Contention: s.contention}
	if s.accesses != 0 {
		c.Data = s.misses / s.accesses
	}
	return c
}

// layout converts a dense assignment back to the API's map form.
func (s *state) layout(pe []int) Layout {
	l := make(Layout, len(pe))
	for i, r := range s.refs {
		l[r] = pe[i]
	}
	return l
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
