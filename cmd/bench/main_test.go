package main

import (
	"maps"
	"math"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// headlineArtifact is the committed BENCH document whose headline keys the
// simulation must still reproduce bit for bit.
const headlineArtifact = "../../BENCH_2026-10-17.json"

// artifactKeys pins the size of the artifact's key set, so a headline block
// cannot leave derive and the regenerated artifact together unnoticed. A key
// that leaves on purpose changes this number in a reviewed edit.
const artifactKeys = 110

// TestHeadlineMatchesArtifact recomputes every simulated headline key except
// the fleet1000_* flagship block and compares it bit for bit with the
// artifact. The flagship block costs most of a full derive; `go run
// ./cmd/bench -check` covers it.
func TestHeadlineMatchesArtifact(t *testing.T) {
	want, err := readHeadline(headlineArtifact)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != artifactKeys {
		t.Fatalf("%s holds %d headline keys, want %d", headlineArtifact, len(want), artifactKeys)
	}
	for key := range want {
		if strings.HasPrefix(key, "fleet1000_") {
			delete(want, key)
		}
	}
	env, err := experiments.NewEnv(1, experiments.DefaultValidationFrames)
	if err != nil {
		t.Fatal(err)
	}
	got, err := headline(env)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffHeadline(want, got) {
		t.Error(d)
	}
}

// TestDiffHeadline pins the comparison: every kind of difference is reported
// under its key's name, in key order, and equal maps report nothing.
func TestDiffHeadline(t *testing.T) {
	base := map[string]float64{"a": 1, "b": 0.1, "z": 0}
	with := func(mut func(h map[string]float64)) map[string]float64 {
		h := maps.Clone(base)
		mut(h)
		return h
	}
	cases := []struct {
		name string
		got  map[string]float64
		keys []string // the keys reported, in order
	}{
		{"equal", with(func(map[string]float64) {}), nil},
		{"missing", with(func(h map[string]float64) { delete(h, "b") }), []string{"b"}},
		{"extra", with(func(h map[string]float64) { h["c"] = 2 }), []string{"c"}},
		{"one ulp", with(func(h map[string]float64) { h["b"] = math.Nextafter(0.1, 1) }), []string{"b"}},
		{"negative zero", with(func(h map[string]float64) { h["z"] = math.Copysign(0, -1) }), []string{"z"}},
		{"sorted", with(func(h map[string]float64) {
			h["z"] = 1
			h["c"] = 2
			delete(h, "a")
		}), []string{"a", "c", "z"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			diffs := diffHeadline(base, c.got)
			if len(diffs) != len(c.keys) {
				t.Fatalf("got %q, want lines naming %q", diffs, c.keys)
			}
			for i, key := range c.keys {
				if !strings.HasPrefix(diffs[i], key+":") {
					t.Errorf("line %d = %q, want it to name %s", i, diffs[i], key)
				}
			}
		})
	}
}
