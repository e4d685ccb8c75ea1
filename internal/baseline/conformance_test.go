package baseline

import (
	"testing"

	"repro/internal/confgraph"
	"repro/internal/detmodel"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/runtime"
	"repro/internal/scene"
	"repro/internal/zoo"
)

// conformanceCase builds one fresh runner per invocation (fresh platform,
// loader and policy state), so every row of the table is independent.
type conformanceCase struct {
	name  string
	build func(t *testing.T) runtime.Runner
	// extra holds method-specific invariants beyond the shared loop
	// contract.
	extra func(t *testing.T, res *runtime.Result)
}

// conformanceCases covers all five policies of the serving engine: SHIFT and
// the four baselines.
func conformanceCases(t *testing.T) []conformanceCase {
	t.Helper()
	// SHIFT needs the offline stage; build it once for every invocation.
	sys := zoo.Default(1)
	ch := profile.Characterize(sys, scene.ValidationSet(1, 200))
	graph, err := confgraph.Build(ch, confgraph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return []conformanceCase{
		{
			name: "SingleModel",
			build: func(t *testing.T) runtime.Runner {
				r, err := NewSingleModel(zoo.Default(1), detmodel.YoloV7, "gpu")
				if err != nil {
					t.Fatal(err)
				}
				return r
			},
			extra: func(t *testing.T, res *runtime.Result) {
				if pipeline.PairsUsed(res) != 1 {
					t.Error("single model used more than one pair")
				}
				for i, rec := range res.Records {
					if (i == 0) != rec.LoadedModel {
						t.Fatalf("frame %d LoadedModel=%v; only frame 0 should load", i, rec.LoadedModel)
					}
				}
			},
		},
		{
			name: "Marlin",
			build: func(t *testing.T) runtime.Runner {
				r, err := NewMarlin(zoo.Default(1), DefaultMarlinConfig())
				if err != nil {
					t.Fatal(err)
				}
				return r
			},
			extra: func(t *testing.T, res *runtime.Result) {
				if pipeline.SwapCount(res) != 0 {
					t.Error("Marlin swapped despite its fixed DNN pair")
				}
			},
		},
		{
			name: "FrameSkip",
			build: func(t *testing.T) runtime.Runner {
				r, err := NewFrameSkip(zoo.Default(1), detmodel.YoloV7, "gpu", 4)
				if err != nil {
					t.Fatal(err)
				}
				return r
			},
			extra: func(t *testing.T, res *runtime.Result) {
				for i, rec := range res.Records {
					paidCompute := rec.LatSec > 0
					if paidCompute != (i%4 == 0) {
						t.Fatalf("frame %d compute charge %v breaks the skip cadence", i, paidCompute)
					}
				}
			},
		},
		{
			name: "Oracle",
			build: func(t *testing.T) runtime.Runner {
				r, err := NewOracle(zoo.Default(1), OracleAccuracy)
				if err != nil {
					t.Fatal(err)
				}
				return r
			},
			extra: func(t *testing.T, res *runtime.Result) {
				for i, rec := range res.Records {
					if rec.LoadedModel {
						t.Fatalf("free-switching oracle charged a load at frame %d", i)
					}
				}
			},
		},
		{
			name: "OracleWithLoads",
			build: func(t *testing.T) runtime.Runner {
				r, err := NewOracleWithLoads(zoo.Default(1), OracleEnergy)
				if err != nil {
					t.Fatal(err)
				}
				return r
			},
		},
		{
			name: "SHIFT",
			build: func(t *testing.T) runtime.Runner {
				r, err := pipeline.NewSHIFT(zoo.Default(1), ch, graph, pipeline.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				return r
			},
			extra: func(t *testing.T, res *runtime.Result) {
				if pipeline.PairsUsed(res) < 2 {
					t.Error("SHIFT never moved off its initial pair on a context-changing scenario")
				}
			},
		},
	}
}

// TestRunnerConformance is the shared loop contract every policy must
// satisfy, replacing the per-baseline copies of these assertions: one
// record per frame in order, swap flags derived from the pair sequence,
// well-formed costs and detections, and bit-exact determinism across fresh
// runner constructions.
func TestRunnerConformance(t *testing.T) {
	frames := testFrames(t)
	for _, c := range conformanceCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			runner := c.build(t)
			if runner.Name() == "" {
				t.Fatal("empty method name")
			}
			res, err := runner.Run("scenario2", frames)
			if err != nil {
				t.Fatal(err)
			}
			if res.Method != runner.Name() {
				t.Fatalf("result method %q != runner name %q", res.Method, runner.Name())
			}
			if res.Scenario != "scenario2" {
				t.Fatalf("result scenario %q", res.Scenario)
			}
			if len(res.Records) != len(frames) {
				t.Fatalf("%d records for %d frames", len(res.Records), len(frames))
			}
			for i, rec := range res.Records {
				if rec.Index != frames[i].Index {
					t.Fatalf("record %d has frame index %d, want %d", i, rec.Index, frames[i].Index)
				}
				if rec.LatSec < 0 || rec.EnergyJ < 0 {
					t.Fatalf("frame %d has negative costs: %+v", i, rec)
				}
				if rec.IoU < 0 || rec.IoU > 1 {
					t.Fatalf("frame %d IoU out of range: %v", i, rec.IoU)
				}
				if rec.Pair == (zoo.Pair{}) {
					t.Fatalf("frame %d has no serving pair", i)
				}
				wantSwap := i > 0 && rec.Pair != res.Records[i-1].Pair
				if rec.Swapped != wantSwap {
					t.Fatalf("frame %d Swapped=%v but pair change=%v", i, rec.Swapped, wantSwap)
				}
			}
			// Determinism: a fresh runner over the same frames reproduces
			// every record bit for bit.
			res2, err := c.build(t).Run("scenario2", frames)
			if err != nil {
				t.Fatal(err)
			}
			for i := range res.Records {
				if res.Records[i] != res2.Records[i] {
					t.Fatalf("record %d not deterministic:\n%+v\n%+v", i, res.Records[i], res2.Records[i])
				}
			}
			if c.extra != nil {
				c.extra(t, res)
			}
		})
	}
}
