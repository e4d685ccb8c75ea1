package experiments

import (
	"fmt"
	"io"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/textplot"
)

// ObsSweepConfig is one fleet serving cell's shape. It parameterizes the
// flight-recorder experiment — the cell run twice, once detached and once
// with the recorder attached, so the report can both show where frame
// latency went and certify the recorder changed nothing — and it is the
// shape every fleet sweep serves its grid cells in (see serveCell).
type ObsSweepConfig struct {
	// Devices is the fleet size (default 4).
	Devices int
	// Placement is the dispatch policy (default residency-affinity).
	Placement string
	// Scales cycles per-device accel time scales (default {1, 1.25}: every
	// second device is 25% slower).
	Scales []float64
	// Workload is the offered stream trace (default
	// fleet.DefaultWorkloadConfig).
	Workload fleet.WorkloadConfig
	// Admission gates per-device concurrency; nil means
	// fleet.DefaultAdmission (3 streams/device, 8-slot queue). A pointer so
	// an explicit zero value (unlimited budget, reject immediately) is
	// distinguishable from "use the default".
	Admission *fleet.Admission
	// PoolMB sizes each device's SoC engine arena in MB (default 1300 — the
	// memory-tight fleet tier, same arena the eviction ablation uses: big
	// enough for the largest single engine, too small for two large ones,
	// so model residency is a scarce resource placement can exploit and
	// swap stalls show up in the tail).
	PoolMB int64
}

// DefaultObsSweepConfig returns the standard recorder cell, which is also
// the default cell shape of FleetSweep, FaultSweep and CrashSweep.
func DefaultObsSweepConfig() ObsSweepConfig {
	adm := fleet.DefaultAdmission()
	return ObsSweepConfig{
		Devices:   4,
		Placement: "residency-affinity",
		Scales:    []float64{1, 1.25},
		Workload:  fleet.DefaultWorkloadConfig(),
		Admission: &adm,
		PoolMB:    1300,
	}
}

// ObsSweepResult is the recorder experiment's outcome.
type ObsSweepResult struct {
	Devices   int
	Placement string
	// Summary is the attached run's serving summary; DetachedEqual reports
	// whether the detached control run summarized identically — the
	// zero-perturbation certificate.
	Summary       fleet.Summary
	DetachedEqual bool
	// Attribution is the per-frame latency decomposition;
	// Attribution.SwapStallShareOfP99 is the headline.
	Attribution obs.Attribution
	// Spans counts recorded spans. Recorder exposes the full recorder for
	// trace export and timelines.
	Spans    int
	Recorder *obs.Recorder
}

// ObsSweep serves one seeded fleet cell with the flight recorder attached,
// re-serves it detached, and reduces the span stream to the latency
// attribution. The two runs must summarize bit-identically — the recorder
// observes the event loop, it never steers it.
func ObsSweep(env *Env, cfg ObsSweepConfig) (*ObsSweepResult, error) {
	cfg = cfg.withDefaults(DefaultObsSweepConfig())
	rec := obs.NewRecorder()
	attached, err := ObsCell(env, cfg, rec)
	if err != nil {
		return nil, fmt.Errorf("experiments: obs attached run: %w", err)
	}
	detached, err := ObsCell(env, cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: obs detached run: %w", err)
	}
	res := &ObsSweepResult{
		Devices:       cfg.Devices,
		Placement:     cfg.Placement,
		Summary:       fleet.Summarize(attached),
		Attribution:   rec.Attribution(),
		Spans:         len(rec.Spans()),
		Recorder:      rec,
		DetachedEqual: fleet.Summarize(attached) == fleet.Summarize(detached),
	}
	return res, nil
}

// ObsCell serves one tiered fleet cell — a FleetSweep grid cell — with rec
// attached (nil: detached control). Exported so the recorder overhead
// benchmark can time the two paths separately; cfg must be fully populated
// (use DefaultObsSweepConfig).
func ObsCell(env *Env, cfg ObsSweepConfig, rec *obs.Recorder) (*fleet.Result, error) {
	return serveCell(env, cfg, cellOpts{premium: true, rec: rec})
}

// WriteChromeTrace exports the attached run's span stream as Chrome
// trace-event JSON (chrome://tracing, Perfetto).
func (r *ObsSweepResult) WriteChromeTrace(w io.Writer) error {
	return r.Recorder.WriteChromeTrace(w)
}

// Report renders the attribution block, the per-device timeline and the
// metrics registry.
func (r *ObsSweepResult) Report() string {
	a := r.Attribution
	head := fmt.Sprintf(
		"Flight recorder: %d devices, %s | %d spans over %d frames | recorder perturbation: %s",
		r.Devices, r.Placement, r.Spans, a.Frames, map[bool]string{true: "none (bit-identical)", false: "DETECTED"}[r.DetachedEqual])
	rows := [][]string{
		{"Component", "Share of total", "Share of p99 tail"},
		{"queue (admission + backlog)", fmt.Sprintf("%.1f%%", a.QueueShare*100), fmt.Sprintf("%.1f%%", a.QueueShareOfP99*100)},
		{"swap stall (engine loads)", fmt.Sprintf("%.1f%%", a.SwapShare*100), fmt.Sprintf("%.1f%%", a.SwapStallShareOfP99*100)},
		{"exec (inference + overhead)", fmt.Sprintf("%.1f%%", a.ExecShare*100), fmt.Sprintf("%.1f%%", a.ExecShareOfP99*100)},
		{"interference (proc queueing)", fmt.Sprintf("%.1f%%", a.InterferenceShare*100), fmt.Sprintf("%.1f%%", a.InterferenceShareOfP99*100)},
	}
	out := head + "\n\n" + textplot.Table(
		fmt.Sprintf("Latency attribution: p99 %.3fs over %d tail frames (swap-stall share of p99: %.1f%%)",
			a.P99Sec, a.TailFrames, a.SwapStallShareOfP99*100), rows)
	if tl := r.Recorder.Timeline(72); tl != "" {
		out += "\n" + tl
	}
	out += "\n" + r.Recorder.Registry().Render()
	return out
}
