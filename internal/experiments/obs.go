package experiments

import (
	"fmt"
	"io"

	"repro/internal/accel"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/predict"
	"repro/internal/rng"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/textplot"
	"repro/internal/zoo"
)

// ObsSweepConfig parameterizes the flight-recorder experiment: one fleet
// serving cell (same construction as a FleetSweep cell) run twice — once
// detached, once with the recorder attached — so the report can both show
// where frame latency went and certify the recorder changed nothing.
type ObsSweepConfig struct {
	// Devices is the fleet size (default 4).
	Devices int
	// Placement is the dispatch policy (default residency-affinity).
	Placement string
	// Scales cycles per-device accel time scales (default {1, 1.25}).
	Scales []float64
	// Workload is the offered stream trace (default
	// fleet.DefaultWorkloadConfig).
	Workload fleet.WorkloadConfig
	// Admission gates per-device concurrency; nil means
	// fleet.DefaultAdmission.
	Admission *fleet.Admission
	// PoolMB sizes each device's SoC engine arena in MB (default 1300, the
	// memory-tight tier where swap stalls actually show up in the tail).
	PoolMB int64
	// PremiumFraction is the seeded premium-tier fraction (default 1/3,
	// negative disables), identical to FleetSweep's tiering.
	PremiumFraction float64
}

// DefaultObsSweepConfig returns the standard recorder cell.
func DefaultObsSweepConfig() ObsSweepConfig {
	adm := fleet.DefaultAdmission()
	return ObsSweepConfig{
		Devices:         4,
		Placement:       "residency-affinity",
		Scales:          []float64{1, 1.25},
		Workload:        fleet.DefaultWorkloadConfig(),
		Admission:       &adm,
		PoolMB:          1300,
		PremiumFraction: 1.0 / 3,
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
	def := DefaultObsSweepConfig()
	if cfg.Devices == 0 {
		cfg.Devices = def.Devices
	}
	if cfg.Devices < 0 {
		return nil, fmt.Errorf("experiments: invalid device count %d", cfg.Devices)
	}
	if cfg.Placement == "" {
		cfg.Placement = def.Placement
	}
	if len(cfg.Scales) == 0 {
		cfg.Scales = def.Scales
	}
	if cfg.Workload.Streams == 0 {
		cfg.Workload = def.Workload
	}
	if cfg.Admission == nil {
		cfg.Admission = def.Admission
	}
	if cfg.PoolMB == 0 {
		cfg.PoolMB = def.PoolMB
	}
	if cfg.PremiumFraction == 0 {
		cfg.PremiumFraction = def.PremiumFraction
	}
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

// ObsCell builds and serves one fleet cell exactly the way FleetSweep does,
// with rec attached (nil: detached control). Exported so the recorder
// overhead benchmark can time the two paths separately; cfg must be fully
// populated (use DefaultObsSweepConfig).
func ObsCell(env *Env, cfg ObsSweepConfig, rec *obs.Recorder) (*fleet.Result, error) {
	return obsCell(env, cfg, rec, nil)
}

// obsCell is ObsCell with an optional swap-prediction config — the shared
// cell builder behind ObsSweep (pf always nil) and PrefetchSweep (the same
// cell with the predictor on, so before/after attributions are comparable).
func obsCell(env *Env, cfg ObsSweepConfig, rec *obs.Recorder, pf *predict.Config) (*fleet.Result, error) {
	newSystem := func(seed uint64) *zoo.System {
		sys := zoo.Default(seed)
		sys.SoC.Pools[accel.SoCPoolName] = accel.NewMemPool(accel.SoCPoolName, cfg.PoolMB*accel.MB)
		return sys
	}
	policy := func(sys *zoo.System) (runtime.Policy, error) {
		return pipeline.NewPolicy(sys, env.Ch, env.Graph, pipeline.DefaultOptions())
	}
	premiumOpts := pipeline.DefaultOptions()
	premiumOpts.Sched.Knobs = sched.Knobs{Accuracy: 3, Energy: 0.2, Latency: 0.2}
	premium := func(sys *zoo.System) (runtime.Policy, error) {
		return pipeline.NewPolicy(sys, env.Ch, env.Graph, premiumOpts)
	}
	place, err := fleet.PlacementByName(cfg.Placement)
	if err != nil {
		return nil, err
	}
	devices := make([]fleet.DeviceConfig, cfg.Devices)
	for i := range devices {
		devices[i] = fleet.DeviceConfig{
			Name:  fmt.Sprintf("edge%02d", i),
			Scale: cfg.Scales[i%len(cfg.Scales)],
		}
	}
	fl, err := fleet.New(fleet.Config{
		Seed:      env.Seed,
		Devices:   devices,
		Placement: place,
		Admission: *cfg.Admission,
		NewSystem: newSystem,
		Recorder:  rec,
		Prefetch:  pf,
	})
	if err != nil {
		return nil, err
	}
	reqs, err := fleet.GenerateWorkload(cfg.Workload, env.Frames, policy)
	if err != nil {
		return nil, err
	}
	tr := rng.New(cfg.Workload.Seed).Fork("fleet/tiers")
	for i := range reqs {
		if tr.Float64() < cfg.PremiumFraction {
			reqs[i].Scenario = "premium/" + reqs[i].Scenario
			reqs[i].Policy = premium
			reqs[i].PeriodSec = cfg.Workload.PeriodSec * 2.5
			reqs[i].Frames = reqs[i].Frames[:len(reqs[i].Frames)*2/5]
		}
	}
	return fl.Run(reqs)
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
