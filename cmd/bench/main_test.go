package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// headlineArtifact is the committed BENCH document whose headline keys the
// simulation must still reproduce bit for bit.
const headlineArtifact = "../../BENCH_2026-08-08.json"

// prefetchHeadline pins the prefetch_* keys, which postdate the artifact.
var prefetchHeadline = map[string]float64{
	"prefetch_coverage":                    0.3283582089552239,
	"prefetch_accuracy":                    1,
	"prefetch_timeliness":                  1,
	"prefetch_issued":                      8,
	"prefetch_full_hits":                   1,
	"prefetch_late_hits":                   0,
	"prefetch_stall_saved_s":               1.499445031,
	"prefetch_swap_stall_share_p99_before": 0.12700436087915518,
	"prefetch_swap_stall_share_p99_after":  0.10489965176397299,
}

// TestHeadlineMatchesArtifact recomputes every simulated headline key except
// the fleet1000_* flagship block and compares it with exact float equality:
// the artifact's keys must come back unchanged, and the prefetch keys must
// equal their pinned literals.
func TestHeadlineMatchesArtifact(t *testing.T) {
	raw, err := os.ReadFile(headlineArtifact)
	if err != nil {
		t.Fatal(err)
	}
	var doc Doc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	env, err := experiments.NewEnv(1, experiments.DefaultValidationFrames)
	if err != nil {
		t.Fatal(err)
	}
	got, err := headline(env)
	if err != nil {
		t.Fatal(err)
	}
	artifact := 0
	for key, want := range doc.Headline {
		if strings.HasPrefix(key, "fleet1000_") || strings.HasPrefix(key, "fleet100_") {
			continue // the flagship scale block, outside headline()
		}
		artifact++
		if v, ok := got[key]; !ok {
			t.Errorf("%s: missing (artifact %v)", key, want)
		} else if v != want {
			t.Errorf("%s = %v, artifact %v", key, v, want)
		}
	}
	if artifact != 94 {
		t.Errorf("artifact holds %d comparable keys, want 94", artifact)
	}
	for key, want := range prefetchHeadline {
		if v, ok := got[key]; !ok {
			t.Errorf("%s: missing (pinned %v)", key, want)
		} else if v != want {
			t.Errorf("%s = %v, pinned %v", key, v, want)
		}
	}
	if len(got) != artifact+len(prefetchHeadline) {
		t.Errorf("headline returned %d keys, want %d", len(got), artifact+len(prefetchHeadline))
	}
}
