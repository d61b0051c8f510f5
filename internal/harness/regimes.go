package harness

import (
	"fmt"

	"wavescalar/internal/ooo"
	"wavescalar/internal/stats"
	"wavescalar/internal/wavecache"
)

// memoryRegimes are E1b's points: caches that shrink, as the kernels are
// ~100x smaller than SPEC, to emulate increasing memory pressure
// (EXPERIMENTS.md's scaling caveats).
func memoryRegimes(m MachineOptions) []point {
	starved := m
	starved.L1Words = 256 // 2 KB
	heavy := starved
	heavy.Regime = "dram-heavy"
	return []point{{"cache-resident", m}, {"L1-starved", starved}, {"DRAM-heavy", heavy}}
}

func runE1b(set []*Compiled, m MachineOptions) (*stats.Table, error) {
	regimes := memoryRegimes(m)
	t := stats.NewTable("E1b: WaveCache speedup over superscalar, by memory regime",
		append([]string{"bench"}, columns(regimes, "speedup@")...)...)
	type cell struct {
		wres wavecache.Result
		ores ooo.Result
	}
	grid := make([]cell, len(set)*len(regimes))
	cells := newCellSet(m)
	for bi, c := range set {
		for ri, r := range regimes {
			slot := bi*len(regimes) + ri
			cells.wave(c, c.Wave, r.m, &grid[slot].wres)
			cells.add(c, func() (err error) {
				ocfg := DefaultOoOConfig()
				ocfg.Mem = r.m.hierarchy(1)
				grid[slot].ores, err = RunOoO(c, ocfg)
				return err
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
	t.Note = fmt.Sprintf("regimes shrink the hierarchy in proportion to the kernels' scaled-down working sets (see EXPERIMENTS.md); DRAM-heavy uses a %d-cycle memory",
		regimes[2].m.hierarchy(1).MemLatency)
	return t, nil
}
