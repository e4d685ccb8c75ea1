//go:build !race

package pipeline

import (
	"testing"

	"repro/internal/zoo"
)

// TestPairsUsedAllocationFree: counting a result's engines allocates
// nothing, on every runtime pair of the default zoo with runs of one pair.
func TestPairsUsedAllocationFree(t *testing.T) {
	res := &Result{}
	for _, p := range zoo.Default(1).RuntimePairs() {
		for i := 0; i < 3; i++ {
			res.Records = append(res.Records, FrameRecord{Pair: p})
		}
	}
	if got := PairsUsed(res); got != 18 {
		t.Fatalf("PairsUsed = %d over every runtime pair, want 18", got)
	}
	if n := testing.AllocsPerRun(100, func() { PairsUsed(res) }); n != 0 {
		t.Fatalf("PairsUsed allocates %v times per call", n)
	}
}
