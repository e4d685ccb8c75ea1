package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/detmodel"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/runtime"
	"repro/internal/scene"
)

// tableIIISequential is the original sequential method×scenario loop,
// retained as the specification the parallel TableIII is tested against.
func tableIIISequential(env *Env, scenarios []*scene.Scenario) (*TableIIIResult, error) {
	if scenarios == nil {
		scenarios = scene.EvaluationSuite()
	}
	res := &TableIIIResult{PerScenario: map[string]map[string]*runtime.Result{}}
	for _, mf := range tableIIIMethods() {
		var perScenario []metrics.Summary
		res.PerScenario[mf.name] = map[string]*runtime.Result{}
		for _, sc := range scenarios {
			runner, err := mf.build(env)
			if err != nil {
				return nil, err
			}
			r, err := runner.Run(sc.Name, env.Frames(sc))
			if err != nil {
				return nil, err
			}
			r.Method = mf.name
			res.PerScenario[mf.name][sc.Name] = r
			s := metrics.Summarize(r)
			s.Method = mf.name
			perScenario = append(perScenario, s)
		}
		combined, err := metrics.Combine(perScenario)
		if err != nil {
			return nil, err
		}
		res.Summaries = append(res.Summaries, combined)
	}
	return res, nil
}

func TestTableIIIParallelMatchesSequential(t *testing.T) {
	env := testEnv(t)
	scenarios := []*scene.Scenario{scene.Scenario2(), scene.Scenario3()}
	got, err := TableIII(env, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tableIIISequential(env, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Summaries, want.Summaries) {
		t.Fatalf("parallel summaries differ from sequential:\n%+v\nvs\n%+v", got.Summaries, want.Summaries)
	}
	if !reflect.DeepEqual(got.PerScenario, want.PerScenario) {
		t.Fatal("parallel per-scenario records differ from sequential")
	}
	// Determinism: a second parallel run must be identical.
	again, err := TableIII(env, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Summaries, again.Summaries) {
		t.Fatal("TableIII is not deterministic across runs")
	}
}

// figure5Sequential runs the sweep grid one configuration at a time.
func figure5Sequential(env *Env, cfg SweepConfig) (*Figure5Result, error) {
	scenarios := cfg.Scenarios
	if scenarios == nil {
		scenarios = []*scene.Scenario{scene.Scenario2(), scene.Scenario4()}
	}
	for _, sc := range scenarios {
		env.Frames(sc)
	}
	graphs, err := buildSweepGraphs(env, cfg)
	if err != nil {
		return nil, err
	}
	res := &Figure5Result{Correlations: map[string][3]float64{}}
	for _, accK := range cfg.AccKnobs {
		for _, enK := range cfg.EnergyKnobs {
			for _, latK := range cfg.LatencyKnobs {
				for _, thr := range cfg.AccThresholds {
					for _, mom := range cfg.Momentums {
						for _, dt := range cfg.DistThresholds {
							pt, err := runSweepPoint(env, graphs[dt], scenarios, SweepPoint{
								AccKnob: accK, EnergyKnob: enK, LatencyKnob: latK,
								AccThreshold: thr, Momentum: mom, DistThreshold: dt,
							})
							if err != nil {
								return nil, err
							}
							res.Points = append(res.Points, pt)
						}
					}
				}
			}
		}
	}
	res.computeCorrelations()
	return res, nil
}

func TestFigure5ParallelMatchesSequential(t *testing.T) {
	env := testEnv(t)
	cfg := QuickSweepConfig()
	cfg.Scenarios = []*scene.Scenario{scene.Scenario3()}
	got, err := Figure5(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := figure5Sequential(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Points, want.Points) {
		t.Fatalf("parallel sweep points differ from sequential:\n%+v\nvs\n%+v", got.Points, want.Points)
	}
	if !reflect.DeepEqual(got.Correlations, want.Correlations) {
		t.Fatal("parallel correlations differ from sequential")
	}
}

// skipComparisonSequential is the original sequential comparison loop.
func skipComparisonSequential(env *Env, scenarios []*scene.Scenario, skips []int) (*SkipComparisonResult, error) {
	if scenarios == nil {
		scenarios = []*scene.Scenario{scene.Scenario1(), scene.Scenario2()}
	}
	if skips == nil {
		skips = []int{1, 2, 4, 8, 16}
	}
	res := &SkipComparisonResult{}
	for _, skip := range skips {
		var perScenario []metrics.Summary
		for _, sc := range scenarios {
			runner, err := baseline.NewFrameSkip(env.System(), detmodel.YoloV7, "gpu", skip)
			if err != nil {
				return nil, err
			}
			r, err := runner.Run(sc.Name, env.Frames(sc))
			if err != nil {
				return nil, err
			}
			s := metrics.Summarize(r)
			s.Method = fmt.Sprintf("skip=%d", skip)
			perScenario = append(perScenario, s)
		}
		combined, err := metrics.Combine(perScenario)
		if err != nil {
			return nil, err
		}
		res.SkipPoints = append(res.SkipPoints, SkipPoint{Skip: skip, Summary: combined})
	}
	var shiftPerScenario []metrics.Summary
	for _, sc := range scenarios {
		shift, err := pipeline.NewSHIFT(env.System(), env.Ch, env.Graph, pipeline.DefaultOptions())
		if err != nil {
			return nil, err
		}
		r, err := shift.Run(sc.Name, env.Frames(sc))
		if err != nil {
			return nil, err
		}
		s := metrics.Summarize(r)
		s.Method = "SHIFT"
		shiftPerScenario = append(shiftPerScenario, s)
	}
	combined, err := metrics.Combine(shiftPerScenario)
	if err != nil {
		return nil, err
	}
	res.SHIFT = combined
	return res, nil
}

func TestSkipComparisonParallelMatchesSequential(t *testing.T) {
	env := testEnv(t)
	scenarios := []*scene.Scenario{scene.Scenario2()}
	skips := []int{1, 4}
	got, err := SkipComparison(env, scenarios, skips)
	if err != nil {
		t.Fatal(err)
	}
	want, err := skipComparisonSequential(env, scenarios, skips)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parallel skip comparison differs from sequential:\n%+v\nvs\n%+v", got, want)
	}
}
