//go:build !race

package zoo

import "testing"

// TestRuntimePairsOneAllocation: the pair list is computed once per system;
// a call only copies it.
func TestRuntimePairsOneAllocation(t *testing.T) {
	s := Default(1)
	if n := testing.AllocsPerRun(100, func() { s.RuntimePairs() }); n != 1 {
		t.Fatalf("RuntimePairs allocates %v times per call, want 1", n)
	}
}
