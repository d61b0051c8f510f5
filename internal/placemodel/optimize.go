package placemodel

import (
	"math/rand"

	"wavescalar/internal/placement"
	"wavescalar/internal/profile"
)

// Optimize is the placement model's raison d'être (the paper: "the model
// provides a quickly calculable objective function that an optimizer could
// minimize"): starting from a seed layout, it hill-climbs with occasional
// uphill escapes, moving one randomly chosen instruction at a time to a
// randomly chosen PE and keeping the move when the weighted combination of
// the three component costs does not rise. No simulation runs during the
// search — only the analytic model, updated by each move's delta (see
// state) — which is the entire point.
//
// It returns the best-scoring layout the walk visited, if any scored
// strictly below the seed. If none did, it returns the layout the walk
// ended on — not the seed — and because every uphill escape raises the bar
// for the moves after it, that layout can score well above the seed: as
// E8 and E14 construct profile-feedback it does on all ten kernels (the
// table in EXPERIMENTS.md §E14). Both experiments are recorded with this
// behaviour, so changing it changes their tables.
func Optimize(cfg Config, prof *profile.Profile, seed Layout, iters int, rngSeed int64) Layout {
	if len(seed) == 0 {
		return Layout{}
	}
	rng := rand.New(rand.NewSource(rngSeed))
	cur := newState(cfg, prof, seed)

	// The three components have incomparable units; weight them by the
	// paper's contributions over scale estimates from the seed layout so a
	// unit move trades off sensibly.
	base := cur.components()
	latScale := base.Latency
	if latScale <= 0 {
		latScale = 1
	}
	conScale := base.Contention
	if conScale <= 0 {
		conScale = 1
	}
	dataScale := base.Data
	if dataScale <= 0 {
		dataScale = 1
	}
	w := PaperWeights()
	score := func(c Components) float64 {
		return w.Latency*c.Latency/latScale + w.Data*c.Data/dataScale + w.Contention*c.Contention/conScale
	}

	var best []int // homes of the best layout seen; nil until the seed is beaten
	bestScore := score(base)
	curScore := bestScore

	npes := cfg.Machine.NumPEs()
	for it := 0; it < iters; it++ {
		i := rng.Intn(len(cur.pe))
		old := cur.pe[i]
		cand := rng.Intn(npes)
		if cand == old {
			continue
		}
		lat := cur.latency
		cur.move(i, cand)
		s := score(cur.components())
		switch {
		case s <= curScore:
			curScore = s
			if s < bestScore {
				bestScore = s
				best = append(best[:0], cur.pe...)
			}
		case rng.Float64() < 0.02:
			// Occasional uphill move to escape local minima.
			curScore = s
		default:
			cur.move(i, old)
			cur.latency = lat // undo exactly even if cfg's latencies are fractional
		}
	}
	if best == nil {
		best = cur.pe
	}
	return cur.layout(best)
}

// FixedPolicy adapts an optimized Layout to the placement.Policy interface
// so the WaveCache simulator can run it. Instructions outside the layout
// (never profiled, e.g. cold error paths) fall back to a snake fill.
type FixedPolicy struct {
	name     string
	layout   Layout
	fallback placement.Policy
}

// NewFixedPolicy wraps a layout.
func NewFixedPolicy(name string, l Layout, m placement.Machine) (*FixedPolicy, error) {
	fb, err := placement.NewDynamicSnake(m)
	if err != nil {
		return nil, err
	}
	return &FixedPolicy{name: name, layout: l, fallback: fb}, nil
}

// Name identifies the policy.
func (f *FixedPolicy) Name() string { return f.name }

// Assign returns the layout's home, or the fallback's for unprofiled
// instructions.
func (f *FixedPolicy) Assign(ref profile.InstrRef) int {
	if pe, ok := f.layout[ref]; ok {
		return pe
	}
	return f.fallback.Assign(ref)
}
