//go:build !race

package fleet

import (
	"testing"

	"repro/internal/runtime"
	"repro/internal/zoo"
)

// TestTeachKnownEnginesAllocationFree: re-teaching engines a scenario
// already knows allocates nothing — the affinity model keys on the
// comparable engine key, not a built string.
func TestTeachKnownEnginesAllocationFree(t *testing.T) {
	f := &Fleet{affinity: map[string]map[zoo.EngineKey]zoo.Pair{}}
	var recs []runtime.FrameRecord
	for _, p := range zoo.Default(1).RuntimePairs() {
		recs = append(recs, runtime.FrameRecord{Pair: p}, runtime.FrameRecord{Pair: p})
	}
	f.teach("scenario2", recs)
	if n := testing.AllocsPerRun(100, func() { f.teach("scenario2", recs) }); n != 0 {
		t.Fatalf("teach allocates %v times per call for known engines", n)
	}
}
