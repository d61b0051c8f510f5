package harness

import (
	"strings"
	"sync"
	"testing"
)

// fullSuite caches the whole compiled benchmark suite across the
// differential tests; compiling ten workloads through four backends is
// the expensive part, so it runs once per test binary.
var fullSuite struct {
	once sync.Once
	set  []*Compiled
	err  error
}

func fullSet(t *testing.T) []*Compiled {
	t.Helper()
	fullSuite.once.Do(func() {
		fullSuite.set, fullSuite.err = Suite(nil, DefaultCompileOptions())
	})
	if fullSuite.err != nil {
		t.Fatal(fullSuite.err)
	}
	return fullSuite.set
}

// TestDifferentialChecksums is the cross-engine correctness suite: for
// every workload, every engine of the shared Engines() table — the dataflow
// interpreter (on all three compiled binaries), the WaveCache timing
// simulator (in all four memory modes), and the out-of-order baseline —
// must reproduce the checksum the AST evaluator and the linear emulator
// agreed on in CompileSource.
func TestDifferentialChecksums(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite differential sweep is slow")
	}
	set := fullSet(t)
	engines := Engines(quickMachine())
	if len(engines) != 8 {
		t.Fatalf("engine table has %d engines, want 8", len(engines))
	}

	for _, c := range set {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			for _, e := range engines {
				e := e
				t.Run(e.Name, func(t *testing.T) {
					t.Parallel()
					got, err := e.Run(c)
					if err != nil {
						t.Fatal(err)
					}
					if got.Value != c.Checksum {
						t.Errorf("checksum %d, want %d", got.Value, c.Checksum)
					}
				})
			}
		})
	}
}

// TestRunDifferential exercises the reusable runner on one workload: all
// engines must agree (Pass), and the timing engines must report cycles.
func TestRunDifferential(t *testing.T) {
	set := quickSet(t)
	d := RunDifferential(set[0], Engines(quickMachine()))
	if !d.Pass() {
		t.Fatalf("differential mismatches: %v", d.Mismatches())
	}
	if d.Want != set[0].Checksum || d.Image != set[0].Image || d.Name != set[0].Name {
		t.Errorf("verdict header wrong: %+v", d)
	}
	cycles := map[string]bool{}
	for _, r := range d.Results {
		if r.Cycles > 0 {
			cycles[r.Engine] = true
		}
		// Every engine but the out-of-order model keeps a memory image.
		if (r.MemDigest != 0) != (r.Engine != "ooo") {
			t.Errorf("%s: memory digest %x", r.Engine, r.MemDigest)
		}
	}
	// The image is compared, not just carried: same checksum, one word of
	// memory different — what a dead store committed out of order leaves.
	d.Results[5].MemDigest++
	if m := d.Mismatches(); len(m) != 1 || !strings.Contains(m[0], d.Results[5].Engine+": memory image") {
		t.Errorf("a different memory image under an agreeing checksum went unreported: %v", m)
	}
	for _, e := range []string{"wavecache-wave-ordered", "ooo"} {
		if !cycles[e] {
			t.Errorf("timing engine %s reported no cycles (have %v)", e, cycles)
		}
	}
}
