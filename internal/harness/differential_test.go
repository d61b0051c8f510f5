package harness

import (
	"strings"
	"testing"
)

// TestDifferentialChecksums is the cross-engine correctness suite: for
// every workload, every engine of the shared Engines() table — the dataflow
// interpreter (on all three compiled binaries) and the WaveCache timing
// simulator (in all four memory modes) — must reproduce the checksum and the
// memory image the AST evaluator and the linear emulator agreed on in
// CompileSource.
func TestDifferentialChecksums(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite differential sweep is slow")
	}
	set := fenceSets(t).kernels
	engines := Engines(quickMachine())
	if len(engines) != 7 {
		t.Fatalf("engine table has %d engines, want 7", len(engines))
	}

	for _, c := range set {
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			for _, e := range engines {
				t.Run(e.Name, func(t *testing.T) {
					t.Parallel()
					if m := RunDifferential(c, []Engine{e}).Mismatches(); len(m) > 0 {
						t.Error(m)
					}
				})
			}
		})
	}
}

// TestRunDifferential checks what the runner adds to the engines: the
// verdict header, and an image compared, not just carried.
func TestRunDifferential(t *testing.T) {
	set := quickSet(t)
	d := RunDifferential(set[0], Engines(quickMachine()))
	if d.Want != set[0].Checksum || d.Image != set[0].Image || d.Name != set[0].Name {
		t.Errorf("verdict header wrong: %+v", d)
	}
	// Same checksum, one word of memory different — what a dead store
	// committed out of order leaves.
	d.Results[5].MemDigest++
	if m := d.Mismatches(); len(m) != 1 || !strings.Contains(m[0], d.Results[5].Engine+": memory image") {
		t.Errorf("a different memory image under an agreeing checksum went unreported: %v", m)
	}
}
