package harness

import (
	"fmt"
	"testing"

	"wavescalar/internal/parallel"
	"wavescalar/internal/placement"
	"wavescalar/internal/profile"
	"wavescalar/internal/wavecache"
)

// mirrorX hands out its inner policy's homes reflected across the grid's
// vertical axis: a PE keeps its offset within its cluster, and the cluster
// in column col moves to column GridW-1-col of the same row. On an even-width
// grid no column is its own mirror, so every home moves.
type mirrorX struct {
	placement.Policy
	m placement.Machine
}

func (p mirrorX) Assign(ref profile.InstrRef) int {
	pe := p.Policy.Assign(ref)
	per := placement.PEsPerCluster
	row, col := pe/per/p.m.GridW, pe/per%p.m.GridW
	return (row*p.m.GridW+p.m.GridW-1-col)*per + pe%per
}

// TestRelabellingInvariance: the mesh, its dimension-order routes and the
// per-cluster L1s look the same from either side, so mirroring every home of
// the default policy is a relabelling and may not change what a run computes
// or when. Each kernel on the 4x4 machine, wave-ordered, must keep its value,
// cycles and commit-trace digest. The machine packs 4 homes a PE instead of
// the default 16, so every kernel spreads over several clusters (at 16 most
// fit in one, and a relabelling that is no symmetry goes unnoticed). All ten
// kernels hold; one that stops holding is a timing anomaly to explain.
func TestRelabellingInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates every kernel twice")
	}
	set := fenceSets(t).kernels
	m := DefaultMachineOptions()
	m.Density = 4
	type outcome struct {
		value, cycles int64
		commit        uint64
	}
	got, err := parallel.Map(0, 2*len(set), func(i int) (outcome, error) {
		c := set[i/2]
		cfg, pol, err := m.Build(c.Wave)
		if err != nil {
			return outcome{}, err
		}
		if i%2 == 1 {
			pol = mirrorX{pol, cfg.Machine}
		}
		a := wavecache.NewArena()
		res, err := a.Run(c.Wave, pol, cfg)
		if err != nil {
			return outcome{}, fmt.Errorf("%s: %w", c.Name, err)
		}
		return outcome{res.Value, res.Cycles, a.Fence().Commit}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range set {
		if got[2*i] != got[2*i+1] {
			t.Errorf("%s: mirrored in x %+v, as placed %+v", c.Name, got[2*i+1], got[2*i])
		}
	}
}
