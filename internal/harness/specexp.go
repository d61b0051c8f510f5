package harness

import (
	"wavescalar/internal/stats"
	"wavescalar/internal/wavecache"
)

// runE15 sets MemSpec beside the wave-ordered issue it speculates over: AIPC
// of both, then where the speculation went — the squash rate (the fraction
// of epochs, i.e. of waves that speculated, that hit a conflict and replayed
// their speculative remainder), the loads forwarded from the versioned store
// buffer and the accesses replayed. Checksums are verified on every cell
// (RunWave), so a speculation bug fails the experiment rather than skewing
// it.
func runE15(set []*Compiled, m MachineOptions) (*stats.Table, error) {
	spec := m
	spec.MemMode = wavecache.MemSpec
	points := []point{{"ordered", m}, {"spec", spec}}
	t, err := sweepTable("E15: MemSpec against wave-ordered issue",
		[]string{"ordered", "spec", "sq%", "fwd", "replayed"}, set, m, points,
		func(c *Compiled, res []wavecache.Result) []any {
			g := res[1].Spec
			sq := 0.0
			if g.Epochs > 0 {
				sq = 100 * float64(g.Squashes) / float64(g.Epochs)
			}
			return append(aipcs(c, res), sq, g.Forwards, g.ReplayedOps)
		})
	if err != nil {
		return nil, err
	}
	t.Note = "AIPC; sq% = squashed epochs / opened epochs (an epoch is one wave, the Transactional WaveCache's implicit transaction); fwd = loads forwarded from the versioned store buffer; replayed = accesses re-executed at commit"
	return t, nil
}
