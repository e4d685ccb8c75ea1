package experiments

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/scene"
	"repro/internal/textplot"
)

// PrefetchSweepConfig parameterizes the predictive-prefetch experiment: one
// miss-heavy, memory-tight recorder cell (same construction as the ObsSweep
// cell) run twice — once with the TAGE swap predictor off (the before run,
// today's serving path bit-for-bit) and once with it on — so the report can
// put the predictor's SupraX-style coverage/accuracy/timeliness next to the
// swap-stall share of the p99 tail it is supposed to shrink.
type PrefetchSweepConfig struct {
	// Cell is the fleet serving cell, shared by both runs. Zero-valued
	// fields default via DefaultPrefetchSweepConfig: a tighter pool
	// (1000 MB shared across gpu+dla) and the oscillate scenario, so engine
	// loads miss periodically and swap stalls own a visible share of the
	// tail without the tail drowning in queue backlog. The on run uses
	// predict.DefaultConfig.
	Cell ObsSweepConfig
}

// DefaultPrefetchSweepConfig returns the standard miss-heavy prefetch cell.
func DefaultPrefetchSweepConfig() PrefetchSweepConfig {
	cell := DefaultObsSweepConfig()
	cell.Devices = 2
	cell.Placement = "round-robin"
	cell.PoolMB = 1000
	cell.Workload.Streams = 12
	cell.Workload.RatePerSec = 0.05
	cell.Workload.PeriodSec = 0.3
	cell.Workload.MinFrames = 240
	cell.Workload.MaxFrames = 240
	cell.Workload.Scenarios = []*scene.Scenario{scene.ScenarioOscillate()}
	return PrefetchSweepConfig{Cell: cell}
}

// PrefetchSweepResult is the prefetch experiment's outcome: the off and on
// runs' latency attributions plus the on run's aggregated predictor stats.
type PrefetchSweepResult struct {
	Devices   int
	Placement string
	PoolMB    int64
	// Off and On are the latency attributions of the predictor-off and
	// predictor-on runs; Off.SwapStallShareOfP99 vs On.SwapStallShareOfP99
	// is the headline contrast.
	Off, On obs.Attribution
	// OffSummary and OnSummary are the two runs' serving summaries. The
	// predictor never steers decisions, but prefetch does change frame
	// latency (that is the point), so the summaries differ in timing while
	// serving counts stay comparable.
	OffSummary, OnSummary fleet.Summary
	// Stats aggregates every departed session's predictor counters from the
	// on run: coverage, accuracy, timeliness and the stall seconds hidden.
	Stats predict.Stats
	// OffRecorder and OnRecorder expose the two span streams for trace
	// export and registry inspection (prefetch_issued / prefetch_hits).
	OffRecorder, OnRecorder *obs.Recorder
}

// PrefetchSweep serves the cell twice — predictor off, then on — with the
// flight recorder attached to both, and reduces each span stream to its
// latency attribution. The off run is the committed serving path bit-for-bit
// (Config.Prefetch nil takes the identical code path as a build without the
// predictor); the on run overlaps predicted engine loads with compute and
// pre-warms admission targets, so its swap-stall share of the p99 tail is
// the number the predictor is judged on.
func PrefetchSweep(env *Env, cfg PrefetchSweepConfig) (*PrefetchSweepResult, error) {
	cell := cfg.Cell.withDefaults(DefaultPrefetchSweepConfig().Cell)
	offRec := obs.NewRecorder()
	offRes, err := serveCell(env, cell, cellOpts{premium: true, rec: offRec})
	if err != nil {
		return nil, fmt.Errorf("experiments: prefetch off run: %w", err)
	}
	onRec := obs.NewRecorder()
	pf := predict.DefaultConfig()
	onRes, err := serveCell(env, cell, cellOpts{premium: true, rec: onRec, prefetch: &pf})
	if err != nil {
		return nil, fmt.Errorf("experiments: prefetch on run: %w", err)
	}
	return &PrefetchSweepResult{
		Devices:     cell.Devices,
		Placement:   cell.Placement,
		PoolMB:      cell.PoolMB,
		Off:         offRec.Attribution(),
		On:          onRec.Attribution(),
		OffSummary:  fleet.Summarize(offRes),
		OnSummary:   fleet.Summarize(onRes),
		Stats:       onRes.Prefetch,
		OffRecorder: offRec,
		OnRecorder:  onRec,
	}, nil
}

// Report renders the SupraX-style predictor scorecard and the before/after
// latency attribution contrast.
func (r *PrefetchSweepResult) Report() string {
	s := r.Stats
	head := fmt.Sprintf(
		"Predictive prefetch: %d devices, %s, %d MB pools | %d swaps, %d prefetches issued",
		r.Devices, r.Placement, r.PoolMB, s.Swaps, s.Issued)
	score := [][]string{
		{"Metric", "Value", "Definition"},
		{"coverage", fmt.Sprintf("%.1f%%", s.Coverage()*100), "swaps with a confident prediction"},
		{"accuracy", fmt.Sprintf("%.1f%%", s.Accuracy()*100), "confident predictions that were right"},
		{"timeliness", fmt.Sprintf("%.1f%%", s.Timeliness()*100), "hits fully loaded by demand time"},
		{"stall saved", fmt.Sprintf("%.2fs", s.StallSavedSec), "load seconds hidden by overlap"},
		{"stall residual", fmt.Sprintf("%.2fs", s.StallResidualSec), "late-hit stall still paid"},
	}
	off, on := r.Off, r.On
	contrast := [][]string{
		{"Metric", "Prefetch off", "Prefetch on"},
		{"swap-stall share of p99", fmt.Sprintf("%.1f%%", off.SwapStallShareOfP99*100), fmt.Sprintf("%.1f%%", on.SwapStallShareOfP99*100)},
		{"swap-stall share overall", fmt.Sprintf("%.1f%%", off.SwapShare*100), fmt.Sprintf("%.1f%%", on.SwapShare*100)},
		{"p99 latency", fmt.Sprintf("%.3fs", off.P99Sec), fmt.Sprintf("%.3fs", on.P99Sec)},
		{"deadline miss rate", fmt.Sprintf("%.1f%%", r.OffSummary.DeadlineMissRate*100), fmt.Sprintf("%.1f%%", r.OnSummary.DeadlineMissRate*100)},
	}
	return head + "\n\n" +
		textplot.Table("Predictor scorecard (SupraX-style)", score) + "\n" +
		textplot.Table(fmt.Sprintf("Tail attribution over %d frames", on.Frames), contrast)
}
