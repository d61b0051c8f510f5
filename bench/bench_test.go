package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"testing"
)

// TestSmoke runs all five workloads at tiny scale, untraced and traced, and
// checks that the workload and metric names the program emits are exactly
// those BENCHMARK.json declares, that nothing fails, and that BENCHMARK.json
// is what -manifest prints.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared manifest
	if err := json.Unmarshal(data, &declared); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(declared, benchManifest()) {
		t.Errorf("BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}

	names := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.Name)
		}
		sort.Strings(out)
		return out
	}
	sz := defaultSizes(true)
	sz.scratch = t.TempDir()
	for _, w := range declared.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(runConfig{workload: w.Name, seed: 1, seconds: 0, trace: traced, sz: sz, log: io.Discard})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d operations failed", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := names(declared.EndToEnd)
			if traced {
				want = names(declared.PerLayer)
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, m.Value)
				}
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: emitted metrics %v, BENCHMARK.json declares %v", w.Name, traced, got, want)
			}
		}
	}
}
