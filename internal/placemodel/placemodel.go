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
	"slices"

	"wavescalar/internal/placement"
	"wavescalar/internal/profile"
	"wavescalar/internal/stats"
)

// Layout maps each (executed) static instruction to its home PE.
type Layout map[profile.InstrRef]int

// ExtractLayout materializes a policy's assignment for every instruction
// the profile saw. Calling it after a simulation reads the recorded homes
// (Assign is idempotent); calling it before a run drives a policy that
// assigns on first reference in (Func, Instr) order, not execution order.
func ExtractLayout(pol placement.Policy, prof *profile.Profile) Layout {
	l := make(Layout, len(prof.Fires))
	for _, ref := range sortedRefs(prof.Fires) {
		l[ref] = pol.Assign(ref)
	}
	return l
}

// sortedRefs lists a map's instructions in (Func, Instr) order, so nothing
// computed from the walk depends on map iteration order.
func sortedRefs[V any](m map[profile.InstrRef]V) []profile.InstrRef {
	refs := make([]profile.InstrRef, 0, len(m))
	for r := range m {
		refs = append(refs, r)
	}
	slices.SortFunc(refs, func(a, b profile.InstrRef) int {
		return cmp.Or(cmp.Compare(a.Func, b.Func), cmp.Compare(a.Instr, b.Instr))
	})
	return refs
}

// Config carries the machine parameters the component models need.
type Config struct {
	Machine placement.Machine
	// PECapacity is the PE instruction-store size (Equation 5's limit).
	PECapacity int

	// Latencies of the four communication regimes (Equation 1). The
	// defaults are the paper's: 0 / 4 / 7 / 7 + hops.
	PodLatency     float64
	DomainLatency  float64
	ClusterLatency float64
	MeshBase       float64
	MeshPerHop     float64
}

// DefaultConfig returns the paper's parameters for the given machine.
func DefaultConfig(m placement.Machine, peCapacity int) Config {
	return Config{
		Machine:        m,
		PECapacity:     peCapacity,
		PodLatency:     0,
		DomainLatency:  4,
		ClusterLatency: 7,
		MeshBase:       7,
		MeshPerHop:     1,
	}
}

// Weights are the combined model's component weights (Equation 6).
type Weights struct {
	Latency    float64
	Data       float64
	Contention float64
}

// PaperWeights are the contributions the paper derives: 0.35 / 0.14 / 0.51.
func PaperWeights() Weights { return Weights{Latency: 0.35, Data: 0.14, Contention: 0.51} }

// Components bundles one layout's raw metrics.
type Components struct {
	Latency    float64
	Data       float64
	Contention float64
}

// Evaluate computes all three component metrics for one layout: operand
// latency (Equation 2), the migratory-sharing miss ratio (Equations 3–4)
// and PE contention (Equation 5). Every home in the layout must be a PE of
// cfg.Machine.
func Evaluate(cfg Config, prof *profile.Profile, l Layout) Components {
	return newState(cfg, prof, l).components()
}

// Combine normalizes each component across the candidate layouts to [0, 1]
// and returns the weighted sums (Equation 6): one predicted-badness score
// per layout.
func Combine(comps []Components, w Weights) []float64 {
	norm := func(get func(Components) float64) []float64 {
		lo, hi := get(comps[0]), get(comps[0])
		for _, c := range comps[1:] {
			v := get(c)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
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
		out[i] = w.Latency*ls[i] + w.Data*ds[i] + w.Contention*cs[i]
	}
	return out
}

// Correlation returns the Pearson coefficient between model scores and
// measured performance. A useful model is strongly negative (the paper:
// −0.90 in-sample, −0.82 held out).
func Correlation(scores, perf []float64) float64 {
	return stats.Pearson(scores, perf)
}
