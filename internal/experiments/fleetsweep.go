package experiments

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/textplot"
)

// FleetSweepConfig parameterizes the multi-device serving experiment: device
// count × placement policy under one fixed seeded workload. A seeded third
// of the streams runs the premium tier (see cellOpts.premium).
type FleetSweepConfig struct {
	// DeviceCounts lists the fleet sizes to sweep (default 1, 2, 4).
	DeviceCounts []int
	// Placements lists the dispatch policies compared at each size (default
	// all three: round-robin, least-outstanding, residency-affinity).
	Placements []string
	// Scales, Workload, Admission and PoolMB shape every cell, identical
	// across the grid; unset fields default as in DefaultObsSweepConfig.
	Scales    []float64
	Workload  fleet.WorkloadConfig
	Admission *fleet.Admission
	PoolMB    int64
}

// DefaultFleetSweepConfig returns the standard grid.
func DefaultFleetSweepConfig() FleetSweepConfig {
	cell := DefaultObsSweepConfig()
	return FleetSweepConfig{
		DeviceCounts: []int{1, 2, 4},
		Placements:   []string{"round-robin", "least-outstanding", "residency-affinity"},
		Scales:       cell.Scales,
		Workload:     cell.Workload,
		Admission:    cell.Admission,
		PoolMB:       cell.PoolMB,
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
	base := ObsSweepConfig{Scales: cfg.Scales, Workload: cfg.Workload, Admission: cfg.Admission,
		PoolMB: cfg.PoolMB}.withDefaults(DefaultObsSweepConfig())
	res := &FleetSweepResult{Workload: base.Workload, Admission: *base.Admission}
	for _, k := range cfg.DeviceCounts {
		for _, pname := range cfg.Placements {
			cell := base
			cell.Devices, cell.Placement = k, pname
			run, err := serveCell(env, cell, cellOpts{premium: true})
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
