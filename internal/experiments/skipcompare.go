package experiments

import (
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/detmodel"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/runtime"
	"repro/internal/scene"
)

// SkipPoint is one frame-skipping configuration's suite-level outcome.
type SkipPoint struct {
	Skip    int
	Summary metrics.Summary
}

// SkipComparisonResult contrasts the frame-skipping family against SHIFT at
// matched energy — the quantitative version of the paper's closing claim
// that SHIFT "maintains performance without inter-frame object tracking or
// skipping input frames".
type SkipComparisonResult struct {
	SkipPoints []SkipPoint
	SHIFT      metrics.Summary
}

// SkipComparison runs YoloV7@GPU with skip factors over the given scenarios
// (default: scenarios 1 and 2) alongside SHIFT.
//
// All (configuration, scenario) runs fan out over a worker pool — each owns
// a fresh runner and system — and are combined sequentially in the original
// order, so the result matches the sequential loops exactly.
func SkipComparison(env *Env, scenarios []*scene.Scenario, skips []int) (*SkipComparisonResult, error) {
	if scenarios == nil {
		scenarios = []*scene.Scenario{scene.Scenario1(), scene.Scenario2()}
	}
	if skips == nil {
		skips = []int{1, 2, 4, 8, 16}
	}
	for _, sc := range scenarios {
		env.Frames(sc)
	}
	// Unit i runs configuration i/len(scenarios) — the skip factors first,
	// then SHIFT — on scenario i%len(scenarios).
	nsc := len(scenarios)
	summaries := make([]metrics.Summary, (len(skips)+1)*nsc)
	err := par.MapErr(len(summaries), func(i int) error {
		ci, sc := i/nsc, scenarios[i%nsc]
		var (
			runner runtime.Runner
			method string
			err    error
		)
		if ci < len(skips) {
			runner, err = baseline.NewFrameSkip(env.System(), detmodel.YoloV7, "gpu", skips[ci])
			method = fmt.Sprintf("skip=%d", skips[ci])
		} else {
			runner, err = pipeline.NewSHIFT(env.System(), env.Ch, env.Graph, pipeline.DefaultOptions())
			method = "SHIFT"
		}
		if err != nil {
			return err
		}
		r, err := runner.Run(sc.Name, env.Frames(sc))
		if err != nil {
			return err
		}
		s := metrics.Summarize(r)
		s.Method = method
		summaries[i] = s
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &SkipComparisonResult{}
	for ci := range skips {
		combined, err := metrics.Combine(summaries[ci*nsc : (ci+1)*nsc])
		if err != nil {
			return nil, err
		}
		res.SkipPoints = append(res.SkipPoints, SkipPoint{Skip: skips[ci], Summary: combined})
	}
	combined, err := metrics.Combine(summaries[len(skips)*nsc:])
	if err != nil {
		return nil, err
	}
	res.SHIFT = combined
	return res, nil
}

// ClosestSkipByEnergy returns the skip point whose energy is nearest SHIFT's.
func (r *SkipComparisonResult) ClosestSkipByEnergy() SkipPoint {
	best := r.SkipPoints[0]
	for _, p := range r.SkipPoints[1:] {
		if abs(p.Summary.AvgEnergyJ-r.SHIFT.AvgEnergyJ) < abs(best.Summary.AvgEnergyJ-r.SHIFT.AvgEnergyJ) {
			best = p
		}
	}
	return best
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Report renders the comparison.
func (r *SkipComparisonResult) Report() string {
	var b strings.Builder
	b.WriteString("Frame skipping (YoloV7@GPU) vs SHIFT at matched energy:\n")
	fmt.Fprintf(&b, "%12s %8s %12s %10s\n", "config", "IoU", "energy (J)", "success")
	for _, p := range r.SkipPoints {
		fmt.Fprintf(&b, "%12s %8.3f %12.3f %9.1f%%\n",
			fmt.Sprintf("skip=%d", p.Skip), p.Summary.AvgIoU, p.Summary.AvgEnergyJ,
			p.Summary.SuccessRate*100)
	}
	fmt.Fprintf(&b, "%12s %8.3f %12.3f %9.1f%%\n",
		"SHIFT", r.SHIFT.AvgIoU, r.SHIFT.AvgEnergyJ, r.SHIFT.SuccessRate*100)
	closest := r.ClosestSkipByEnergy()
	fmt.Fprintf(&b, "\nat ~%.2f J/frame: SHIFT IoU %.3f vs skip=%d IoU %.3f (%+.1f%%)\n",
		r.SHIFT.AvgEnergyJ, r.SHIFT.AvgIoU, closest.Skip, closest.Summary.AvgIoU,
		(r.SHIFT.AvgIoU/closest.Summary.AvgIoU-1)*100)
	return b.String()
}
