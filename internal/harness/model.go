package harness

import (
	"wavescalar/internal/interp"
	"wavescalar/internal/placement"
	"wavescalar/internal/placemodel"
	"wavescalar/internal/profile"
	"wavescalar/internal/stats"
)

// runM1 reproduces the follow-on paper's method: profile each application
// once, evaluate eight candidate layouts with the analytic model, simulate
// each layout, and report the Pearson correlation between model scores and
// simulated IPC — per component and combined.
func runM1(set []*Compiled, m MachineOptions) (*stats.Table, error) {
	t := stats.NewTable("M1: model-vs-simulation correlation across 8 layouts",
		"bench", "latency-r", "coherence-r", "contention-r", "combined-r")

	// A small, contention-prone machine gives layouts room to differ, as
	// in the paper's study. Input-queue contention is the resource the model
	// does not capture (the paper notes the same); idealize it as their
	// component isolation does.
	simCfg := MachineOptions{GridW: 2, GridH: 2, Density: 8, PEStore: 8, InputQueue: 1 << 30}.WaveConfig()
	mach := simCfg.Machine
	cfg := placemodel.Config{Machine: mach, PECapacity: 8}

	type cand struct {
		name string
		seed uint64
	}
	cands := []cand{
		{"dynamic-snake", 1}, {"static-snake", 1}, {"depth-first-snake", 1},
		{"dynamic-depth-first-snake", 1},
		{"random", 3}, {"random", 99}, {"packed-random", 3}, {"packed-random", 99},
	}

	// Per bench: one profiling interpreter run plus one simulation per
	// candidate layout, all independent cells. Model evaluation needs the
	// profile and the policy's post-run layout together, so it happens in
	// the sequential collection pass.
	type candRun struct {
		pol placement.Policy
		ipc float64
	}
	profs := make([]*profile.Profile, len(set))
	runs := make([]candRun, len(set)*len(cands))
	cells := newCellSet(m)
	for bi, c := range set {
		cells.add(func() error {
			im := interp.New(c.Wave, 0)
			prof := im.CollectProfile(simCfg.Mem.L1.LineWords)
			if _, err := im.Run(); err != nil {
				return err
			}
			profs[bi] = prof
			return nil
		})
		for cdi, cd := range cands {
			slot := bi*len(cands) + cdi
			cells.add(func() error {
				pol, err := placement.New(cd.name, mach, c.Wave, cd.seed)
				if err != nil {
					return err
				}
				res, err := RunWave(c, c.Wave, pol, simCfg)
				if err != nil {
					return err
				}
				runs[slot] = candRun{pol: pol, ipc: res.IPC}
				return nil
			})
		}
	}
	if err := cells.run(); err != nil {
		return nil, err
	}

	var combAll []float64
	for bi, c := range set {
		prof := profs[bi]
		var comps []placemodel.Components
		var ipcs []float64
		for cdi := range cands {
			r := &runs[bi*len(cands)+cdi]
			comps = append(comps, placemodel.Evaluate(cfg, prof, placemodel.ExtractLayout(r.pol, prof)))
			ipcs = append(ipcs, r.ipc)
		}

		col := func(get func(placemodel.Components) float64) float64 {
			xs := make([]float64, len(comps))
			for i, cc := range comps {
				xs[i] = get(cc)
			}
			return stats.Pearson(xs, ipcs)
		}
		r := stats.Pearson(placemodel.Combine(comps), ipcs)
		combAll = append(combAll, r)
		t.AddRow(c.Name,
			col(func(c placemodel.Components) float64 { return c.Latency }),
			col(func(c placemodel.Components) float64 { return c.Data }),
			col(func(c placemodel.Components) float64 { return c.Contention }),
			r)
	}
	t.AddRow("average", "", "", "", stats.Mean(combAll))
	t.Note = "negative is good: higher predicted cost should mean lower IPC"
	return t, nil
}
