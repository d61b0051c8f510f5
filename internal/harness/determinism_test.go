package harness

import (
	"reflect"
	"testing"

	"wavescalar/internal/ooo"
	"wavescalar/internal/wavecache"
)

// TestSimulationDeterminism: the same (program, policy construction,
// config) inputs must produce bit-identical Result structs on repeated
// runs — the property the parallel harness relies on.
func TestSimulationDeterminism(t *testing.T) {
	set := quickSet(t)
	m := quickMachine()
	for _, c := range set {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			cfg := m.WaveConfig()
			p1, err := m.NewPolicy(c.Wave)
			if err != nil {
				t.Fatal(err)
			}
			w1, err := wavecache.Run(c.Wave, p1, cfg)
			if err != nil {
				t.Fatal(err)
			}
			p2, err := m.NewPolicy(c.Wave)
			if err != nil {
				t.Fatal(err)
			}
			w2, err := wavecache.Run(c.Wave, p2, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(w1, w2) {
				t.Errorf("wavecache results differ:\n%+v\n%+v", w1, w2)
			}
			o1, err := ooo.Run(c.Linear, DefaultOoOConfig())
			if err != nil {
				t.Fatal(err)
			}
			o2, err := ooo.Run(c.Linear, DefaultOoOConfig())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(o1, o2) {
				t.Errorf("ooo results differ:\n%+v\n%+v", o1, o2)
			}
		})
	}
}

// TestWorkerCountInvariance: an experiment's rendered table must be
// byte-identical whether its cells run sequentially or across eight
// workers — results are collected by cell index, never completion order.
func TestWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep is slow")
	}
	set := quickSet(t)
	for _, id := range []string{"E1", "E1b", "E2", "E4", "E8", "E14", "M1", "E12"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e := ExperimentByID(id)
			if e == nil {
				t.Fatalf("experiment %s not registered", id)
			}
			seq := quickMachine()
			seq.Workers = 1
			par := quickMachine()
			par.Workers = 8
			t1, err := e.Run(set, seq)
			if err != nil {
				t.Fatal(err)
			}
			t8, err := e.Run(set, par)
			if err != nil {
				t.Fatal(err)
			}
			if t1.Render() != t8.Render() {
				t.Errorf("tables differ between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", t1.Render(), t8.Render())
			}
		})
	}
}

// TestSuiteWorkerCountInvariance: parallel compilation must return the
// same suite, in the same order, as sequential compilation.
func TestSuiteWorkerCountInvariance(t *testing.T) {
	names := []string{"lu", "fft"}
	seq := DefaultCompileOptions()
	seq.Workers = 1
	par := DefaultCompileOptions()
	par.Workers = 8
	s1, err := Suite(names, seq)
	if err != nil {
		t.Fatal(err)
	}
	s8, err := Suite(names, par)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != len(s8) {
		t.Fatalf("suite sizes differ: %d vs %d", len(s1), len(s8))
	}
	for i := range s1 {
		if s1[i].Name != s8[i].Name || s1[i].Checksum != s8[i].Checksum ||
			s1[i].UsefulInstrs != s8[i].UsefulInstrs {
			t.Errorf("workload %d differs: %+v vs %+v", i, s1[i], s8[i])
		}
	}
}
