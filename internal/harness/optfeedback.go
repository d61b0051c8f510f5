package harness

import (
	"fmt"

	"wavescalar/internal/placemodel"
	"wavescalar/internal/stats"
	"wavescalar/internal/wavecache"
)

// runE14 measures the two feedback loops this harness closes around the
// compiler: the memory-optimization tier (-O1 vs -O0) and the
// profile-guided placement policy, in all four combinations. AIPC for
// every combination is computed against the *unoptimized* binary's
// dynamic linear instruction count — the optimizer removes instructions,
// so charging each binary its own count would hide exactly the work the
// tier eliminated. Checksums are verified on every cell (RunWave), so a
// miscompiled program fails the experiment rather than skewing it.
func runE14(set []*Compiled, m MachineOptions) (*stats.Table, error) {
	t := stats.NewTable("E14: AIPC by optimizer tier x placement feedback (work = O0 linear instrs)",
		"bench", "o0-base", "o0-proffb", "o1-base", "o1-proffb", "o1/o0", "best/o0-base", "memops", "chain-slots")

	// Build both tiers of every bench up front. The incoming set may have
	// been compiled at either level, so reuse a bench's own binary for the
	// level it was built at and recompile only the other tier — its steer
	// binary, which is what every cell below simulates and what Chains and
	// MemOpt come with.
	tier := func(opt int) CompileOptions {
		return CompileOptions{Unroll: DefaultCompileOptions().Unroll, OptLevel: opt, Binaries: []string{"steer"}}
	}
	type pair struct {
		o0, o1 *Compiled
	}
	pairs := make([]pair, len(set))
	comp := newCellSet(m)
	for bi, c := range set {
		comp.add(func() error {
			p := &pairs[bi]
			p.o0, p.o1 = c, c
			var err error
			if c.Opt != 0 {
				if p.o0, err = CompileSource(c.Name, c.Src, tier(0)); err != nil {
					return fmt.Errorf("E14 %s at O0: %w", c.Name, err)
				}
			}
			if c.Opt < 1 {
				if p.o1, err = CompileSource(c.Name, c.Src, tier(1)); err != nil {
					return fmt.Errorf("E14 %s at O1: %w", c.Name, err)
				}
			}
			return nil
		})
	}
	if err := comp.run(); err != nil {
		return nil, err
	}

	// Four simulation cells per bench: {O0, O1} x {baseline policy,
	// profile feedback}. The feedback cells construct their own policy
	// (profiling run + model hill-climb) per cell, as cells must.
	res := make([][4]wavecache.Result, len(set))
	cells := newCellSet(m)
	for bi, p := range pairs {
		for ti, c := range []*Compiled{p.o0, p.o1} {
			cells.wave(c, c.Wave, m, &res[bi][2*ti])
			cells.add(func() (err error) {
				res[bi][2*ti+1], err = runFeedback(c, m)
				return err
			})
		}
	}
	if err := cells.run(); err != nil {
		return nil, err
	}

	var optRatios, bestRatios []float64
	for bi, c := range set {
		p := pairs[bi]
		useful := p.o0.UsefulInstrs
		r := &res[bi]
		cy := [4]int64{r[0].Cycles, r[1].Cycles, r[2].Cycles, r[3].Cycles}
		opt := float64(cy[0]) / float64(cy[2])
		best := cy[1]
		if cy[3] < best {
			best = cy[3]
		}
		bestGain := float64(cy[0]) / float64(best)
		optRatios = append(optRatios, opt)
		bestRatios = append(bestRatios, bestGain)
		t.AddRow(c.Name,
			AIPC(useful, cy[0]),
			AIPC(useful, cy[1]),
			AIPC(useful, cy[2]),
			AIPC(useful, cy[3]),
			opt,
			bestGain,
			fmt.Sprintf("%d->%d", p.o1.MemOpt.MemBefore, p.o1.MemOpt.MemAfter),
			fmt.Sprintf("%d->%d", p.o0.Chains.Slots, p.o1.Chains.Slots))
	}
	t.Note = fmt.Sprintf("geomean cycle speedup: O1 over O0 (baseline policy) %.2fx; best feedback combination over O0 baseline %.2fx", stats.GeoMean(optRatios), stats.GeoMean(bestRatios))
	return t, nil
}

// runFeedback simulates c's steer binary on m's machine under the
// profile-feedback layout, which placemodel.NewProfileFeedback builds here
// in place of the policy m names: no placement.New name reaches it, because
// on the harness machines it repeats depth-first-snake.
func runFeedback(c *Compiled, m MachineOptions) (wavecache.Result, error) {
	m, fc, err := m.check()
	if err != nil {
		return wavecache.Result{}, fmt.Errorf("%s: %w", c.Name, err)
	}
	cfg := m.waveConfig(fc)
	pol, err := placemodel.NewProfileFeedback(cfg.Machine, c.Wave, placementSeed)
	if err != nil {
		return wavecache.Result{}, fmt.Errorf("%s/proffb: %w", c.Name, err)
	}
	return RunWave(c, c.Wave, pol, cfg)
}
