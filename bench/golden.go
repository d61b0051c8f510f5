package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// The golden files pin the simulated axis: per-cell statistics of the sim-*
// workloads and the SHA-256 of every exp-suite table. The model is not
// validated against hardware (the repository holds no reference
// measurements), so these are checked for identity, not accuracy. A
// mismatch is reported (wavecache.stats_digest_match = 0 and the differing
// cells) but is not a failed operation: a deliberate model change stays
// possible and never silent. `-update-golden <dir>` rewrites them.
//
//go:embed golden/*.json
var goldenFS embed.FS

// simDigest is the part of a wavecache.Result that identifies a cell's
// simulated behaviour.
type simDigest struct {
	Value  int64  `json:"value"`
	Cycles int64  `json:"cycles"`
	Fired  uint64 `json:"fired"`
	Tokens uint64 `json:"tokens"`
}

// loadGolden reads golden/<workload>.json into v (a map keyed by cell).
func loadGolden(workload string, v any) error {
	data, err := goldenFS.ReadFile("golden/" + workload + ".json")
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// updateGoldenDir is set by -update-golden; empty means compare only.
var updateGoldenDir string

// verifyGolden compares got with the golden file cell by cell, reports every
// differing cell through rec as a warning, and returns whether all matched.
// With -update-golden it writes got instead.
func verifyGolden[T comparable](rec *recorder, workload string, got map[string]T) (bool, error) {
	if updateGoldenDir != "" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			return false, err
		}
		return true, os.WriteFile(filepath.Join(updateGoldenDir, workload+".json"), append(data, '\n'), 0o644)
	}
	want := map[string]T{}
	if err := loadGolden(workload, &want); err != nil {
		return false, err
	}
	var diff []string
	for k, g := range got {
		if w, ok := want[k]; !ok {
			diff = append(diff, fmt.Sprintf("%s: not in golden file, got %v", k, g))
		} else if w != g {
			diff = append(diff, fmt.Sprintf("%s: golden %v, got %v", k, w, g))
		}
	}
	sort.Strings(diff)
	for _, d := range diff {
		rec.warn("golden mismatch: " + d)
	}
	return len(diff) == 0, nil
}
