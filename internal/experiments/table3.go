package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/runtime"
	"repro/internal/scene"
	"repro/internal/textplot"
)

// TableIIIResult holds the reproduced main-results table: one summary per
// method, averaged over the evaluation suite, plus the per-scenario results
// that the figure experiments reuse.
type TableIIIResult struct {
	Summaries []metrics.Summary
	// PerScenario maps method name -> scenario name -> result.
	PerScenario map[string]map[string]*runtime.Result
}

// methodFactory builds a fresh runner (with a fresh platform) per scenario,
// so memory, clock and meters never leak between videos.
type methodFactory struct {
	name  string
	build func(env *Env) (runtime.Runner, error)
}

// tableIIIMethods are the six rows of Table III.
func tableIIIMethods() []methodFactory {
	return []methodFactory{
		{"Marlin", func(env *Env) (runtime.Runner, error) {
			return baseline.NewMarlin(env.System(), baseline.DefaultMarlinConfig())
		}},
		{"Marlin Tiny", func(env *Env) (runtime.Runner, error) {
			cfg := baseline.DefaultMarlinConfig()
			cfg.Model = "YoloV7-Tiny"
			return baseline.NewMarlin(env.System(), cfg)
		}},
		{"SHIFT", func(env *Env) (runtime.Runner, error) {
			return pipeline.NewSHIFT(env.System(), env.Ch, env.Graph, pipeline.DefaultOptions())
		}},
		{"Oracle E", func(env *Env) (runtime.Runner, error) {
			return baseline.NewOracle(env.System(), baseline.OracleEnergy)
		}},
		{"Oracle A", func(env *Env) (runtime.Runner, error) {
			return baseline.NewOracle(env.System(), baseline.OracleAccuracy)
		}},
		{"Oracle L", func(env *Env) (runtime.Runner, error) {
			return baseline.NewOracle(env.System(), baseline.OracleLatency)
		}},
	}
}

// TableIII reproduces the main results: Marlin, Marlin Tiny, SHIFT and the
// three Oracles over the given scenarios (the full evaluation suite when
// scenarios is nil).
//
// The (method, scenario) grid fans out over a worker pool: every cell owns a
// fresh runner and zoo.System (clean virtual clock, meters and memory) and
// reads the shared render cache and characterization read-only, so cell
// results are independent of scheduling order. Assembly back into Summaries
// and PerScenario happens sequentially in grid order, keeping the output
// identical to the sequential loop (TestTableIIIParallelMatchesSequential).
func TableIII(env *Env, scenarios []*scene.Scenario) (*TableIIIResult, error) {
	if scenarios == nil {
		scenarios = scene.EvaluationSuite()
	}
	// Render up front so workers hit the frame cache read-only.
	for _, sc := range scenarios {
		env.Frames(sc)
	}
	methods := tableIIIMethods()
	type cell struct {
		result  *runtime.Result
		summary metrics.Summary
	}
	cells := make([]cell, len(methods)*len(scenarios))
	err := par.MapErr(len(cells), func(i int) error {
		mf := methods[i/len(scenarios)]
		sc := scenarios[i%len(scenarios)]
		runner, err := mf.build(env)
		if err != nil {
			return fmt.Errorf("experiments: build %s: %w", mf.name, err)
		}
		r, err := runner.Run(sc.Name, env.Frames(sc))
		if err != nil {
			return fmt.Errorf("experiments: run %s on %s: %w", mf.name, sc.Name, err)
		}
		// Report under the factory's display name (e.g. the runner may
		// self-describe as "Marlin Tiny" already; keep them aligned).
		r.Method = mf.name
		s := metrics.Summarize(r)
		s.Method = mf.name
		cells[i] = cell{result: r, summary: s}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &TableIIIResult{PerScenario: map[string]map[string]*runtime.Result{}}
	for mi, mf := range methods {
		perScenario := make([]metrics.Summary, 0, len(scenarios))
		res.PerScenario[mf.name] = map[string]*runtime.Result{}
		for si, sc := range scenarios {
			c := cells[mi*len(scenarios)+si]
			res.PerScenario[mf.name][sc.Name] = c.result
			perScenario = append(perScenario, c.summary)
		}
		combined, err := metrics.Combine(perScenario)
		if err != nil {
			return nil, err
		}
		res.Summaries = append(res.Summaries, combined)
	}
	return res, nil
}

// Summary returns the combined summary for a method.
func (r *TableIIIResult) Summary(method string) (metrics.Summary, bool) {
	for _, s := range r.Summaries {
		if s.Method == method {
			return s, true
		}
	}
	return metrics.Summary{}, false
}

// Report renders the Table III layout.
func (r *TableIIIResult) Report() string {
	rows := [][]string{{"Methodology", "IoU", "Time (s)", "Energy (J)",
		"Success Rate", "Non-GPU", "Model Swaps", "Pairs Used"}}
	for _, s := range r.Summaries {
		rows = append(rows, []string{
			s.Method,
			fmt.Sprintf("%.3f", s.AvgIoU),
			fmt.Sprintf("%.3f", s.AvgTimeSec),
			fmt.Sprintf("%.3f", s.AvgEnergyJ),
			fmt.Sprintf("%.1f%%", s.SuccessRate*100),
			fmt.Sprintf("%.1f%%", s.NonGPUFrac*100),
			fmt.Sprintf("%d", s.Swaps),
			fmt.Sprintf("%.1f", s.PairsUsed),
		})
	}
	return textplot.Table("Table III: average runtime performance of continuous object detection", rows)
}
