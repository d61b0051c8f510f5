package harness

import (
	"flag"
	"fmt"
	"testing"

	"wavescalar/internal/parallel"
)

// ooo_digests.txt is the superscalar baseline's fence, as engine_digests.txt
// is the WaveCache's: every ooo.Result field for the ten kernels, in the
// unrolled build E1 and E1b run and in E11's rolled build, under each of
// E1b's memory regimes. twolf and gzip, the two longest traces, run the
// cache-resident regime only. Outside this file only the experiment tables
// pin the baseline's timing. It was recorded before the port schedules were
// pruned, and a change that claims to leave the model alone must leave it
// byte-identical. Regenerate only for a change meant to alter the model:
//
//	go test ./internal/harness -run TestOoODigestsPinned -update-ooo-digests
var updateOoODigests = flag.Bool("update-ooo-digests", false, "rewrite testdata/ooo_digests.txt from the current superscalar model")

const oooDigestsPath = "testdata/ooo_digests.txt"

func TestOoODigestsPinned(t *testing.T) {
	set := fenceSets(t).kernels
	rolled, err := parallel.Map(0, len(set), func(i int) (*Compiled, error) { return rolledBuild(set[i]) })
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		c      *Compiled
		build  string
		regime point
	}
	var cells []cell
	for i, c := range set {
		for _, b := range []cell{{c: c, build: "unrolled"}, {c: rolled[i], build: "rolled"}} {
			for ri, r := range memoryRegimes(DefaultMachineOptions()) {
				if ri > 0 && (c.Name == "twolf" || c.Name == "gzip") {
					continue
				}
				b.regime = r
				cells = append(cells, b)
			}
		}
	}
	got, err := parallel.Map(0, len(cells), func(i int) (string, error) {
		cl := cells[i]
		cfg := DefaultOoOConfig()
		cfg.Mem = cl.regime.m.hierarchy(1)
		res, err := RunOoO(cl.c, cfg)
		if err != nil {
			return "", fmt.Errorf("%s %s %s: %w", cl.c.Name, cl.build, cl.regime.label, err)
		}
		return fmt.Sprintf("%s %s %s %+v", cl.c.Name, cl.build, cl.regime.label, res), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pinnedLines(t, oooDigestsPath, *updateOoODigests, "-update-ooo-digests", got, nil)
}
