// Package placemodel implements the instruction-placement performance
// model of the follow-on paper "Modeling Instruction Placement on a Spatial
// Architecture" (SPAA 2006), as an extension on top of this repository's
// WaveScalar implementation. The model predicts the relative performance of
// an instruction layout from three components:
//
//   - operand latency: profiled operand traffic between instruction pairs,
//     weighted by the placement-induced communication latency (pod 0 /
//     domain 4 / cluster 7 / mesh 7+hops, the paper's Equation 1–2);
//   - data-cache coherence: a migratory-sharing estimate of the L1 miss
//     ratio — each line accessed by C clusters migrates once per cluster
//     (Equations 3–4);
//   - PE contention: instructions placed at a PE beyond its storage
//     capacity (Equation 5).
//
// The combined model (Equation 6) is a weighted sum of the three
// components, each normalized across the candidate layouts; the paper's
// derived weights are 0.35 / 0.14 / 0.51. Higher scores predict worse
// performance, so a good model correlates *negatively* with simulated IPC
// (the paper reports −0.90 on its training set).
package placemodel

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"wavescalar/internal/placement"
	"wavescalar/internal/profile"
)

// Layout maps each (executed) static instruction to its home PE.
type Layout map[profile.InstrRef]int

// ExtractLayout materializes a policy's assignment for every instruction
// the profile saw, in (Func, Instr) order. After a simulation it reads the
// homes the run recorded (Assign is idempotent); a policy that has not yet
// run assigns on first reference, so the walk's order, not the profile
// map's, decides its homes.
func ExtractLayout(pol placement.Policy, prof *profile.Profile) Layout {
	refs := slices.SortedFunc(maps.Keys(prof.Fires), func(a, b profile.InstrRef) int {
		return cmp.Or(cmp.Compare(a.Func, b.Func), cmp.Compare(a.Instr, b.Instr))
	})
	l := make(Layout, len(refs))
	for _, ref := range refs {
		l[ref] = pol.Assign(ref)
	}
	return l
}

// Config carries the machine parameters the component models need.
type Config struct {
	Machine placement.Machine
	// PECapacity is the PE instruction-store size (Equation 5's limit).
	PECapacity int
}

// Equation 1's latencies, the paper's: an operand between two PEs of one
// pod costs 0 cycles, of one domain 4, of one cluster 7, and between
// clusters 7 plus one per mesh hop.
const (
	podLatency     = 0
	domainLatency  = 4
	clusterLatency = 7
	meshBase       = 7
	meshPerHop     = 1
)

// Equation 6's weights, the component contributions the paper derives.
const (
	latencyWeight    = 0.35
	dataWeight       = 0.14
	contentionWeight = 0.51
)

// Components bundles one layout's raw metrics.
type Components struct {
	Latency    float64
	Data       float64
	Contention float64
}

// Evaluate computes all three component metrics for one layout: operand
// latency (Equation 2), the migratory-sharing miss ratio (Equations 3–4)
// and PE contention (Equation 5). Traffic edges and MemBlocks entries
// naming an instruction outside the layout are skipped. Every home in the
// layout must be a PE of cfg.Machine. Each sum adds integer values (token
// counts times integer latencies, misses, accesses, excess instructions),
// so the float64 results are exact and do not depend on map order.
func Evaluate(cfg Config, prof *profile.Profile, l Layout) Components {
	npes := cfg.Machine.NumPEs()
	occ := make([]int, npes)
	for r, pe := range l {
		if pe < 0 || pe >= npes {
			panic(fmt.Sprintf("placemodel: layout homes %v at PE %d, outside the machine's %d PEs", r, pe, npes))
		}
		occ[pe]++
	}
	var c Components

	// Equation 2: operand traffic weighted by pair latency.
	for e, tokens := range prof.Traffic {
		a, oka := l[e.From]
		b, okb := l[e.To]
		if oka && okb {
			c.Latency += float64(tokens) * pairLatency(cfg.Machine, a, b)
		}
	}

	// Equations 3–4 under the migratory-sharing assumption: a line accessed
	// from C > 1 clusters misses C times (one migration per cluster) and a
	// private line misses once (cold), i.e. one miss per (line, cluster)
	// pair in use, over all accesses.
	inUse := make(map[[2]int64]bool)
	var accesses uint64
	for ref, lines := range prof.MemBlocks {
		pe, ok := l[ref]
		if !ok {
			continue
		}
		cluster := int64(cfg.Machine.Loc(pe).Cluster)
		for line, n := range lines {
			inUse[[2]int64{line, cluster}] = true
			accesses += n
		}
	}
	if accesses != 0 {
		c.Data = float64(len(inUse)) / float64(accesses)
	}

	// Equation 5: every instruction at a PE beyond its capacity counts once.
	for _, n := range occ {
		c.Contention += float64(max(0, n-cfg.PECapacity))
	}
	return c
}

// pairLatency is Equation 1: the operand latency between two PEs.
func pairLatency(m placement.Machine, peA, peB int) float64 {
	a, b := m.Loc(peA), m.Loc(peB)
	switch {
	case a.Cluster != b.Cluster:
		dx := a.Cluster%m.GridW - b.Cluster%m.GridW
		dy := a.Cluster/m.GridW - b.Cluster/m.GridW
		return meshBase + meshPerHop*float64(max(dx, -dx)+max(dy, -dy))
	case a.Domain != b.Domain:
		return clusterLatency
	case a.Pod != b.Pod:
		return domainLatency
	default:
		return podLatency
	}
}

// Combine normalizes each component across the candidate layouts to [0, 1]
// and returns the weighted sums (Equation 6): one predicted-badness score
// per layout.
func Combine(comps []Components) []float64 {
	norm := func(get func(Components) float64) []float64 {
		lo, hi := get(comps[0]), get(comps[0])
		for _, c := range comps[1:] {
			lo, hi = min(lo, get(c)), max(hi, get(c))
		}
		out := make([]float64, len(comps))
		if hi == lo {
			return out
		}
		for i, c := range comps {
			out[i] = (get(c) - lo) / (hi - lo)
		}
		return out
	}
	ls := norm(func(c Components) float64 { return c.Latency })
	ds := norm(func(c Components) float64 { return c.Data })
	cs := norm(func(c Components) float64 { return c.Contention })
	out := make([]float64, len(comps))
	for i := range comps {
		out[i] = latencyWeight*ls[i] + dataWeight*ds[i] + contentionWeight*cs[i]
	}
	return out
}
