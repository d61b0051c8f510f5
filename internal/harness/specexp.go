package harness

import (
	"strconv"

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
	points := []point{{label: "ordered"}}
	for _, scope := range []int{1, 2, 4, 8} {
		points = append(points, point{label: strconv.Itoa(scope),
			opt:  func(o *MachineOptions) { o.MemMode = wavecache.MemSpec },
			edit: func(cfg *wavecache.Config) { cfg.SpecScope = scope }})
	}
	t, err := sweepTable("E15: AIPC and squash rate vs. speculation scope (waves per epoch)",
		append([]string{"ordered"}, columns(points[1:], "aipc@", "sq%@")...), set, m, points,
		func(c *Compiled, res []wavecache.Result) []any {
			row := []any{AIPC(c.UsefulInstrs, res[0].Cycles)}
			for _, g := range res[1:] {
				sq := 0.0
				if g.Spec.Epochs > 0 {
					sq = 100 * float64(g.Spec.Squashes) / float64(g.Spec.Epochs)
				}
				row = append(row, AIPC(c.UsefulInstrs, g.Cycles), sq)
			}
			return row
		})
	if err != nil {
		return nil, err
	}
	t.Note = "sq% = squashed epochs / opened epochs; scope 1 is the Transactional WaveCache's per-wave implicit transaction"
	return t, nil
}
