package baseline

import (
	"testing"

	"repro/internal/runtime"
	"repro/internal/zoo"
)

func runLoadAwareOracle(t *testing.T, metric OracleMetric) *runtime.Result {
	t.Helper()
	sys := zoo.Default(1)
	o, err := NewOracleWithLoads(sys, metric)
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Run("s", testFrames(t))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestOracleWithLoadsName(t *testing.T) {
	sys := zoo.Default(1)
	o, err := NewOracleWithLoads(sys, OracleAccuracy)
	if err != nil {
		t.Fatal(err)
	}
	if o.Name() != "Oracle A (loads)" {
		t.Fatalf("name %q", o.Name())
	}
}

func TestOracleWithLoadsPaysResidency(t *testing.T) {
	res := runLoadAwareOracle(t, OracleAccuracy)
	loads := 0
	for _, rec := range res.Records {
		if rec.LoadedModel {
			loads++
		}
	}
	if loads == 0 {
		t.Fatal("load-aware oracle never paid a load")
	}
}

func TestFreeSwitchingAssumptionQuantified(t *testing.T) {
	// The paper's Oracle-A swaps 409 times for free. Charging real loads
	// must make the same decision sequence strictly more expensive in both
	// time and energy — the size of the free-switching subsidy.
	free := runOracle(t, OracleAccuracy)
	paid := runLoadAwareOracle(t, OracleAccuracy)
	var freeE, paidE, freeT, paidT float64
	for i := range free.Records {
		freeE += free.Records[i].EnergyJ
		freeT += free.Records[i].LatSec
	}
	for i := range paid.Records {
		paidE += paid.Records[i].EnergyJ
		paidT += paid.Records[i].LatSec
	}
	if paidE <= freeE || paidT <= freeT {
		t.Fatalf("load-aware oracle not more expensive: energy %.1f vs %.1f, time %.1f vs %.1f",
			paidE, freeE, paidT, freeT)
	}
	// The subsidy must be substantial: hundreds of swaps imply many engine
	// loads, so at least a 1.5x energy gap on this scenario.
	if paidE < freeE*1.5 {
		t.Logf("note: free-switching subsidy is modest on this scenario (%.2fx)", paidE/freeE)
	}
}

func TestOracleWithLoadsSameDetections(t *testing.T) {
	// Loads change the costs, never the detection outcomes: both variants
	// pick from the same deterministic per-frame candidate set.
	free := runOracle(t, OracleEnergy)
	paid := runLoadAwareOracle(t, OracleEnergy)
	for i := range free.Records {
		if free.Records[i].IoU != paid.Records[i].IoU ||
			free.Records[i].Pair != paid.Records[i].Pair {
			t.Fatalf("frame %d decisions diverged between oracle variants", i)
		}
	}
}
