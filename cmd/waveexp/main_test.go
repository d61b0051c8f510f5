package main

import (
	"strings"
	"testing"

	"wavescalar/internal/harness"
)

func TestPickExperiments(t *testing.T) {
	all, err := pickExperiments("")
	if err != nil || len(all) != len(harness.Experiments) {
		t.Errorf("empty spec picked %d experiments, err %v", len(all), err)
	}
	run, err := pickExperiments(" E4,E12 , M1")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, e := range run {
		ids = append(ids, e.ID)
	}
	if got := strings.Join(ids, " "); got != "E4 E12 M1" {
		t.Errorf("picked %q", got)
	}
	// An unknown ID fails the whole spec, however late it comes, under its
	// trimmed spelling and with the IDs that do exist.
	_, err = pickExperiments("E1, E99")
	if err == nil || !strings.Contains(err.Error(), `"E99"`) || !strings.Contains(err.Error(), "E1b, E2") {
		t.Errorf("E1, E99: %v", err)
	}
}

func TestParseShard(t *testing.T) {
	if k, n, err := parseShard("2/4"); err != nil || k != 2 || n != 4 {
		t.Errorf("2/4: %d/%d, %v", k, n, err)
	}
	for _, bad := range []string{
		"1/4junk", " 1/4", "1/4 ", "01/4", "+1/4", "1/+4", "1 / 4", "1/", "/4", "1",
		"0/4", "5/4", "1/0", "-1/4", "1/4/2",
	} {
		if _, _, err := parseShard(bad); err == nil {
			t.Errorf("-shard %q accepted", bad)
		}
	}
}
