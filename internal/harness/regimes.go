package harness

import (
	"fmt"

	"wavescalar/internal/mem"
	"wavescalar/internal/ooo"
	"wavescalar/internal/stats"
	"wavescalar/internal/wavecache"
)

// memoryRegime scales the cache hierarchy to emulate increasing pressure:
// the kernels are ~100x smaller than SPEC, so the caches shrink in
// proportion (documented in EXPERIMENTS.md's scaling caveats).
type memoryRegime struct {
	name  string
	apply func(*mem.SystemConfig)
}

var regimes = []memoryRegime{
	{"cache-resident", func(c *mem.SystemConfig) {}},
	{"L1-starved", func(c *mem.SystemConfig) {
		c.L1.SizeWords = 256 // 2 KB
	}},
	{"DRAM-heavy", func(c *mem.SystemConfig) {
		c.L1.SizeWords = 256
		c.L2 = mem.CacheConfig{SizeWords: 512, LineWords: 16, Ways: 4} // 4 KB
		c.MemLatency = 300
	}},
}

func runE1b(set []*Compiled, m MachineOptions) (*stats.Table, error) {
	headers := []string{"bench"}
	for _, r := range regimes {
		headers = append(headers, "speedup@"+r.name)
	}
	t := stats.NewTable("E1b: WaveCache speedup over superscalar, by memory regime", headers...)
	type cell struct {
		wres wavecache.Result
		ores ooo.Result
	}
	grid := make([]cell, len(set)*len(regimes))
	cells := newCellSet(m)
	for bi, c := range set {
		for ri, r := range regimes {
			slot := bi*len(regimes) + ri
			cells.wave(c, c.Wave, m, &grid[slot].wres, func(cfg *wavecache.Config) { r.apply(&cfg.Mem) })
			cells.add(func() error {
				ocfg := DefaultOoOConfig()
				r.apply(&ocfg.Mem)
				res, err := RunOoO(c, ocfg)
				if err != nil {
					return err
				}
				grid[slot].ores = res
				return nil
			})
		}
	}
	if err := cells.run(); err != nil {
		return nil, err
	}
	geo := make([][]float64, len(regimes))
	for bi, c := range set {
		row := []any{c.Name}
		for ri := range regimes {
			g := &grid[bi*len(regimes)+ri]
			sp := float64(g.ores.Cycles) / float64(g.wres.Cycles)
			geo[ri] = append(geo[ri], sp)
			row = append(row, sp)
		}
		t.AddRow(row...)
	}
	grow := []any{"geomean"}
	for ri := range regimes {
		grow = append(grow, stats.GeoMean(geo[ri]))
	}
	t.AddRow(grow...)
	t.Note = fmt.Sprintf("regimes shrink the hierarchy in proportion to the kernels' scaled-down working sets (see EXPERIMENTS.md); DRAM-heavy uses a %d-cycle memory", 300)
	return t, nil
}
