package experiments

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/fleet"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/textplot"
	"repro/internal/zoo"
)

// FleetSweepConfig parameterizes the multi-device serving experiment: device
// count × placement policy under one fixed seeded workload.
type FleetSweepConfig struct {
	// DeviceCounts lists the fleet sizes to sweep (default 1, 2, 4).
	DeviceCounts []int
	// Placements lists the dispatch policies compared at each size (default
	// all three: round-robin, least-outstanding, residency-affinity).
	Placements []string
	// Scales cycles per-device accel time scales, making fleets
	// heterogeneous (default {1, 1.25}: every second device is 25% slower).
	Scales []float64
	// Workload is the offered stream trace, identical across all grid cells
	// (default fleet.DefaultWorkloadConfig).
	Workload fleet.WorkloadConfig
	// Admission gates per-device concurrency; nil means
	// fleet.DefaultAdmission (3 streams/device, 8-slot queue). A pointer so
	// an explicit zero value (unlimited budget, reject immediately) is
	// distinguishable from "use the default".
	Admission *fleet.Admission
	// PoolMB sizes each device's SoC engine arena in MB (default 1300 — the
	// memory-tight fleet tier, same arena the eviction ablation uses: big
	// enough for the largest single engine, too small for two large ones,
	// so model residency is a scarce resource placement can exploit).
	PoolMB int64
	// PremiumFraction is the seeded fraction of streams served under the
	// accuracy-weighted premium tier (the eviction ablation's knob set,
	// which pulls the large engines in). Mixing tiers on one memory-tight
	// device churns the loader; grouping them is what the
	// residency-affinity placement can exploit. Default 1/3; negative
	// disables the premium tier.
	PremiumFraction float64
}

// DefaultFleetSweepConfig returns the standard grid.
func DefaultFleetSweepConfig() FleetSweepConfig {
	adm := fleet.DefaultAdmission()
	return FleetSweepConfig{
		DeviceCounts:    []int{1, 2, 4},
		Placements:      []string{"round-robin", "least-outstanding", "residency-affinity"},
		Scales:          []float64{1, 1.25},
		Workload:        fleet.DefaultWorkloadConfig(),
		Admission:       &adm,
		PoolMB:          1300,
		PremiumFraction: 1.0 / 3,
	}
}

// FleetSweepRow is one (device count, placement) cell of the grid.
type FleetSweepRow struct {
	Devices   int
	Placement string
	fleet.Summary
	// PerDevice carries the cell's device stats for utilization plots.
	PerDevice []fleet.DeviceStats
}

// FleetSweepResult is the full grid.
type FleetSweepResult struct {
	Workload  fleet.WorkloadConfig
	Admission fleet.Admission
	Rows      []FleetSweepRow
}

// Row returns the cell for a device count and placement.
func (r *FleetSweepResult) Row(devices int, placement string) (FleetSweepRow, bool) {
	for _, row := range r.Rows {
		if row.Devices == devices && row.Placement == placement {
			return row, true
		}
	}
	return FleetSweepRow{}, false
}

// FleetSweep sweeps fleet size × placement policy under one seeded open-loop
// workload of SHIFT streams: every cell offers the same stream trace to a
// fresh heterogeneous fleet and reports serving quality (IoU), tail latency,
// deadline misses, admission rejects, loader traffic and device utilization.
// It is the fleet-level counterpart of MultiStream: where that sweep found
// one device's capacity cliff, this one measures how placement policy and
// device count move it.
//
// Every cell is a sequential discrete-event simulation; the whole grid is
// deterministic per seed.
func FleetSweep(env *Env, cfg FleetSweepConfig) (*FleetSweepResult, error) {
	def := DefaultFleetSweepConfig()
	if len(cfg.DeviceCounts) == 0 {
		cfg.DeviceCounts = def.DeviceCounts
	}
	if len(cfg.Placements) == 0 {
		cfg.Placements = def.Placements
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
	newSystem := func(seed uint64) *zoo.System {
		sys := zoo.Default(seed)
		sys.SoC.Pools[accel.SoCPoolName] = accel.NewMemPool(accel.SoCPoolName, cfg.PoolMB*accel.MB)
		return sys
	}
	if cfg.PremiumFraction == 0 {
		cfg.PremiumFraction = def.PremiumFraction
	}
	policy := func(sys *zoo.System) (runtime.Policy, error) {
		return pipeline.NewPolicy(sys, env.Ch, env.Graph, pipeline.DefaultOptions())
	}
	premiumOpts := pipeline.DefaultOptions()
	premiumOpts.Sched.Knobs = sched.Knobs{Accuracy: 3, Energy: 0.2, Latency: 0.2}
	premium := func(sys *zoo.System) (runtime.Policy, error) {
		return pipeline.NewPolicy(sys, env.Ch, env.Graph, premiumOpts)
	}
	res := &FleetSweepResult{Workload: cfg.Workload, Admission: *cfg.Admission}
	for _, k := range cfg.DeviceCounts {
		if k <= 0 {
			return nil, fmt.Errorf("experiments: invalid device count %d", k)
		}
		devices := make([]fleet.DeviceConfig, k)
		for i := range devices {
			devices[i] = fleet.DeviceConfig{
				Name:  fmt.Sprintf("edge%02d", i),
				Scale: cfg.Scales[i%len(cfg.Scales)],
			}
		}
		for _, pname := range cfg.Placements {
			place, err := fleet.PlacementByName(pname)
			if err != nil {
				return nil, err
			}
			fl, err := fleet.New(fleet.Config{
				Seed:      env.Seed,
				Devices:   devices,
				Placement: place,
				Admission: *cfg.Admission,
				NewSystem: newSystem,
			})
			if err != nil {
				return nil, err
			}
			// The workload is re-generated per cell so every fleet sees
			// identical requests with fresh policy state.
			reqs, err := fleet.GenerateWorkload(cfg.Workload, env.Frames, policy)
			if err != nil {
				return nil, err
			}
			// Seeded tier assignment: premium streams run accuracy-weighted
			// knobs at a 4 fps camera (their large engines cannot make 10 fps
			// deadlines on any device) and carry a tier-qualified affinity
			// key, so placements can (or fail to) group their large-engine
			// working set.
			tr := rng.New(cfg.Workload.Seed).Fork("fleet/tiers")
			for i := range reqs {
				if tr.Float64() < cfg.PremiumFraction {
					reqs[i].Scenario = "premium/" + reqs[i].Scenario
					reqs[i].Policy = premium
					reqs[i].PeriodSec = cfg.Workload.PeriodSec * 2.5
					reqs[i].Frames = reqs[i].Frames[:len(reqs[i].Frames)*2/5]
				}
			}
			run, err := fl.Run(reqs)
			if err != nil {
				return nil, fmt.Errorf("experiments: fleet %d×%s: %w", k, pname, err)
			}
			res.Rows = append(res.Rows, FleetSweepRow{
				Devices:   k,
				Placement: pname,
				Summary:   fleet.Summarize(run),
				PerDevice: run.Devices,
			})
		}
	}
	return res, nil
}

// Report renders the grid as a table plus the utilization plot of the
// largest residency-affinity fleet.
func (r *FleetSweepResult) Report() string {
	rows := [][]string{{"Devices", "Placement", "Served", "Reject", "IoU",
		"Lat p50 (s)", "Lat p99 (s)", "Miss", "Queue (s)", "Loads", "Evict", "Util"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Devices),
			row.Placement,
			fmt.Sprintf("%d/%d", row.Served, row.Offered),
			fmt.Sprintf("%.0f%%", row.RejectRate*100),
			fmt.Sprintf("%.3f", row.AvgIoU),
			fmt.Sprintf("%.3f", row.Latency.P50),
			fmt.Sprintf("%.3f", row.Latency.P99),
			fmt.Sprintf("%.1f%%", row.DeadlineMissRate*100),
			fmt.Sprintf("%.2f", row.AvgQueueDelaySec),
			fmt.Sprintf("%d", row.Loads),
			fmt.Sprintf("%d", row.Evictions),
			fmt.Sprintf("%.0f%%", row.AvgUtilization*100),
		})
	}
	out := textplot.Table(fmt.Sprintf(
		"Fleet serving: %d streams at %.2f/s, %.0f fps, budget %d streams/device",
		r.Workload.Streams, r.Workload.RatePerSec, 1/r.Workload.PeriodSec,
		r.Admission.PerDeviceStreams), rows)
	// Utilization plot: the largest residency-affinity cell, falling back
	// to the largest cell of any placement (single-cell CLI runs).
	var best *FleetSweepRow
	for i := range r.Rows {
		row := &r.Rows[i]
		better := best == nil ||
			row.Devices > best.Devices ||
			(row.Devices == best.Devices &&
				row.Placement == "residency-affinity" && best.Placement != "residency-affinity")
		if better {
			best = row
		}
	}
	if best != nil {
		labels := make([]string, len(best.PerDevice))
		utils := make([]float64, len(best.PerDevice))
		for i, d := range best.PerDevice {
			labels[i] = fmt.Sprintf("%s (x%.2f)", d.Name, d.Scale)
			utils[i] = d.Utilization
		}
		out += "\n" + textplot.PercentBars(
			fmt.Sprintf("Peak-processor utilization, %d devices, %s", best.Devices, best.Placement),
			labels, utils, 40)
	}
	return out
}
