package placemodel

import (
	"fmt"

	"wavescalar/internal/interp"
	"wavescalar/internal/isa"
	"wavescalar/internal/placement"
)

// This file closes the placement feedback loop: profile the program on the
// reference dataflow interpreter, seed a layout from a static policy,
// improve it under the analytic placement model (Optimize), and replay the
// result through a FixedPolicy. Registering it with the placement package
// makes "profile-feedback" a first-class policy name — selectable by the
// E8 placement comparison, the CLIs' -policy flags, and the serve API —
// without the placement package importing this one (which imports it).
func init() {
	placement.Register("profile-feedback", NewProfileFeedback)
}

const (
	// feedbackIters bounds the hill-climb. A move updates the model by its
	// delta in well under a microsecond (BenchmarkMove: ~170 ns for a move
	// and its undo on twolf at 4x4; BenchmarkOptimize: ~1 ms for the whole
	// climb including building the dense state), so thousands of
	// iterations are still far cheaper than one simulation.
	feedbackIters = 4096
	// feedbackLineWords matches the default L1 line size (mem.Default's
	// 16-word lines) so the profile's sharing sets line up with what the
	// simulated coherence protocol will see.
	feedbackLineWords = 16
)

// NewProfileFeedback builds the profile-guided placement policy: an
// interpreter profiling run, a depth-first-snake seed layout, model-guided
// optimization, and a FixedPolicy that replays the optimized layout. The
// whole pipeline is deterministic in (program, machine, seed).
//
// The returned policy is not Reconfigurable — its layout was optimized for
// the intact machine — so construction rejects machines with configured
// defects rather than placing instructions on dead PEs.
func NewProfileFeedback(m placement.Machine, prog *isa.Program, seed uint64) (placement.Policy, error) {
	if prog == nil {
		return nil, fmt.Errorf("placemodel: profile-feedback requires the program")
	}
	for _, d := range m.Defective {
		if d {
			return nil, fmt.Errorf("placemodel: profile-feedback does not support defective machines (fixed layouts cannot re-place)")
		}
	}
	im := interp.New(prog, 0)
	prof := im.CollectProfile(feedbackLineWords)
	if _, err := im.Run(); err != nil {
		return nil, fmt.Errorf("placemodel: profile-feedback profiling run: %w", err)
	}
	base, err := placement.NewDepthFirstSnake(m, prog)
	if err != nil {
		return nil, err
	}
	layout := ExtractLayout(base, prof)
	cfg := DefaultConfig(m, m.Capacity)
	opt := Optimize(cfg, prof, layout, feedbackIters, int64(seed))
	return NewFixedPolicy("profile-feedback", opt, m)
}
