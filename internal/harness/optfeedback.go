package harness

import (
	"fmt"

	"wavescalar/internal/stats"
	"wavescalar/internal/wavecache"
)

// runE14 crosses the memory-optimization tier (-O1 vs -O0) with the
// placement: m's policy against the static depth-first-snake layout. AIPC
// for every combination is computed against the *unoptimized* binary's
// dynamic linear instruction count — the optimizer removes instructions,
// so charging each binary its own count would hide exactly the work the
// tier eliminated. Checksums are verified on every cell (RunWave), so a
// miscompiled program fails the experiment rather than skewing it.
func runE14(set []*Compiled, m MachineOptions) (*stats.Table, error) {
	t := stats.NewTable("E14: AIPC by optimizer tier x static placement (work = O0 linear instrs)",
		"bench", "o0-base", "o0-static", "o1-base", "o1-static", "o1/o0", "best/o0-base", "memops", "chain-slots")

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
	// depth-first-snake}.
	static := m
	static.Policy = "depth-first-snake"
	res := make([][4]wavecache.Result, len(set))
	cells := newCellSet(m)
	for bi, p := range pairs {
		for ti, c := range []*Compiled{p.o0, p.o1} {
			cells.wave(c, c.Wave, m, &res[bi][2*ti])
			cells.wave(c, c.Wave, static, &res[bi][2*ti+1])
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
	t.Note = fmt.Sprintf("geomean cycle speedup: O1 over O0 (baseline policy) %.2fx; best static combination over O0 baseline %.2fx", stats.GeoMean(optRatios), stats.GeoMean(bestRatios))
	return t, nil
}
