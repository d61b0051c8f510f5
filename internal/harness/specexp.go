package harness

import (
	"fmt"

	"wavescalar/internal/stats"
	"wavescalar/internal/wavecache"
)

// runE15 sweeps the MemSpec transaction scope (waves per epoch) and
// reports AIPC next to the squash rate — the fraction of epochs that hit
// a conflict and replayed their speculative remainder. The wave-ordered
// AIPC anchors each row: speculation at any scope should sit at or above
// it (the thrash fallback's contract), and the headroom it captures
// shrinks as squashes widen. Checksums are verified on every cell
// (RunWave), so a speculation bug fails the experiment rather than
// skewing it.
func runE15(set []*Compiled, m MachineOptions) (*stats.Table, error) {
	scopes := []int{1, 2, 4, 8}
	headers := []string{"bench", "ordered"}
	for _, sc := range scopes {
		headers = append(headers, fmt.Sprintf("aipc@%d", sc), fmt.Sprintf("sq%%@%d", sc))
	}
	t := stats.NewTable("E15: AIPC and squash rate vs. speculation scope (waves per epoch)", headers...)

	ordered := make([]wavecache.Result, len(set))
	grid := make([]wavecache.Result, len(set)*len(scopes))
	cells := newCellSet(m)
	spec := m
	spec.MemMode = wavecache.MemSpec
	for bi, c := range set {
		cells.wave(c, c.Wave, m, &ordered[bi])
		for si, scope := range scopes {
			cells.wave(c, c.Wave, spec, &grid[bi*len(scopes)+si], func(cfg *wavecache.Config) { cfg.SpecScope = scope })
		}
	}
	if err := cells.run(); err != nil {
		return nil, err
	}
	for bi, c := range set {
		row := []any{c.Name, AIPC(c.UsefulInstrs, ordered[bi].Cycles)}
		for si := range scopes {
			g := &grid[bi*len(scopes)+si]
			sq := 0.0
			if g.Spec.Epochs > 0 {
				sq = 100 * float64(g.Spec.Squashes) / float64(g.Spec.Epochs)
			}
			row = append(row, AIPC(c.UsefulInstrs, g.Cycles), sq)
		}
		t.AddRow(row...)
	}
	t.Note = "sq% = squashed epochs / opened epochs; scope 1 is the Transactional WaveCache's per-wave implicit transaction"
	return t, nil
}
