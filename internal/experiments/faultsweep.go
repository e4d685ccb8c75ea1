package experiments

import (
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/textplot"
)

// FaultSweepConfig parameterizes the fault-tolerance experiment: failure rate
// × placement policy under one fixed seeded workload and one seeded fault
// shape, on a fixed-size heterogeneous fleet.
type FaultSweepConfig struct {
	// RatesPerMin lists the mean fleet-wide fault rates swept (faults per
	// minute; 0 is the fault-free reference row). Default 0, 6, 12.
	RatesPerMin []float64
	// Placements lists the dispatch policies compared at each rate (default
	// round-robin and residency-affinity).
	Placements []string
	// Devices, Scales, Workload, Admission and PoolMB shape every cell,
	// identical across the grid; unset fields default as in
	// DefaultObsSweepConfig (the 1300 MB pool is the memory-tight fleet
	// tier, so migrated streams contend for residency on their new device,
	// exercising re-acquisition and warm adoption).
	Devices   int
	Scales    []float64
	Workload  fleet.WorkloadConfig
	Admission *fleet.Admission
	PoolMB    int64
	// Fault shapes the schedule (kind mix, outage/brownout lengths); its
	// Seed and RatePerSec are overridden per cell from the experiment seed
	// and the swept rate. A zero value means fleet.DefaultFaultConfig; a
	// partially specified one keeps its fields (only a missing Horizon is
	// defaulted — the generator itself defaults lengths and the kind mix).
	Fault fleet.FaultConfig
}

// DefaultFaultSweepConfig returns the standard grid.
func DefaultFaultSweepConfig() FaultSweepConfig {
	cell := DefaultObsSweepConfig()
	return FaultSweepConfig{
		RatesPerMin: []float64{0, 6, 12},
		Placements:  []string{"round-robin", "residency-affinity"},
		Devices:     cell.Devices,
		Scales:      cell.Scales,
		Workload:    cell.Workload,
		Admission:   cell.Admission,
		PoolMB:      cell.PoolMB,
		Fault:       fleet.DefaultFaultConfig(),
	}
}

// FaultSweepRow is one (failure rate, placement) cell of the grid.
type FaultSweepRow struct {
	RatePerMin float64
	Placement  string
	Faults     int
	fleet.Summary
	// PerDevice carries the cell's device stats (downtime, displacements).
	PerDevice []fleet.DeviceStats
}

// FaultSweepResult is the full grid.
type FaultSweepResult struct {
	Workload fleet.WorkloadConfig
	Devices  int
	Rows     []FaultSweepRow
}

// Row returns the cell for a failure rate and placement.
func (r *FaultSweepResult) Row(ratePerMin float64, placement string) (FaultSweepRow, bool) {
	for _, row := range r.Rows {
		if row.RatePerMin == ratePerMin && row.Placement == placement {
			return row, true
		}
	}
	return FaultSweepRow{}, false
}

// FaultSweep sweeps failure rate × placement policy under one seeded workload
// of SHIFT streams on a heterogeneous fleet: every cell offers the same
// stream trace and, at equal rates, the same fault schedule (outages, deaths
// and brownouts), and reports serving quality next to the recovery metrics —
// migrations, downtime, aborted streams and the post-failure latency tail.
// The rate-0 row is the fault-free reference and reproduces the unfaulted
// fleet bit-for-bit; every cell is checked leak-free (no residency reference
// survives the run).
func FaultSweep(env *Env, cfg FaultSweepConfig) (*FaultSweepResult, error) {
	def := DefaultFaultSweepConfig()
	if cfg.RatesPerMin == nil {
		cfg.RatesPerMin = def.RatesPerMin
	}
	if len(cfg.Placements) == 0 {
		cfg.Placements = def.Placements
	}
	if cfg.Fault == (fleet.FaultConfig{}) {
		cfg.Fault = def.Fault
	} else if cfg.Fault.Horizon == 0 {
		cfg.Fault.Horizon = def.Fault.Horizon
	}
	base := ObsSweepConfig{Devices: cfg.Devices, Scales: cfg.Scales, Workload: cfg.Workload,
		Admission: cfg.Admission, PoolMB: cfg.PoolMB}.withDefaults(DefaultObsSweepConfig())
	res := &FaultSweepResult{Workload: base.Workload, Devices: base.Devices}
	for _, rate := range cfg.RatesPerMin {
		if rate < 0 {
			return nil, fmt.Errorf("experiments: negative fault rate %v", rate)
		}
		var faults []fleet.Fault
		if rate > 0 {
			fcfg := cfg.Fault
			fcfg.Seed = env.Seed
			fcfg.RatePerSec = rate / 60
			var err error
			faults, err = fleet.GenerateFaults(fcfg, deviceNames(base.Devices))
			if err != nil {
				return nil, err
			}
		}
		for _, pname := range cfg.Placements {
			cell := base
			cell.Placement = pname
			run, err := serveCell(env, cell, cellOpts{faults: faults})
			if err != nil {
				return nil, fmt.Errorf("experiments: fault sweep %v/min×%s: %w", rate, pname, err)
			}
			res.Rows = append(res.Rows, FaultSweepRow{
				RatePerMin: rate,
				Placement:  pname,
				Faults:     len(faults),
				Summary:    fleet.Summarize(run),
				PerDevice:  run.Devices,
			})
		}
	}
	return res, nil
}

// Report renders the grid as a table plus a downtime gauge for the
// highest-rate residency-affinity cell.
func (r *FaultSweepResult) Report() string {
	rows := [][]string{{"Faults/min", "Placement", "Served", "Abort", "Migr",
		"Downtime (s)", "IoU", "Lat p50 (s)", "Lat p99 (s)", "Post-fault p99", "Miss", "Loads"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", row.RatePerMin),
			row.Placement,
			fmt.Sprintf("%d/%d", row.Served, row.Offered),
			fmt.Sprintf("%d", row.Aborted),
			fmt.Sprintf("%d", row.Migrations),
			fmt.Sprintf("%.2f", row.AvgDowntimeSec),
			fmt.Sprintf("%.3f", row.AvgIoU),
			fmt.Sprintf("%.3f", row.Latency.P50),
			fmt.Sprintf("%.3f", row.Latency.P99),
			fmt.Sprintf("%.3f", row.PostFaultP99),
			fmt.Sprintf("%.1f%%", row.DeadlineMissRate*100),
			fmt.Sprintf("%d", row.Loads),
		})
	}
	out := textplot.Table(fmt.Sprintf(
		"Fault tolerance: %d streams on %d devices, checkpoint/migrate on failure",
		r.Workload.Streams, r.Devices), rows)
	// Downtime plot: the highest-rate cell, preferring residency-affinity.
	var best *FaultSweepRow
	for i := range r.Rows {
		row := &r.Rows[i]
		better := best == nil ||
			row.RatePerMin > best.RatePerMin ||
			(row.RatePerMin == best.RatePerMin &&
				row.Placement == "residency-affinity" && best.Placement != "residency-affinity")
		if better {
			best = row
		}
	}
	if best != nil && best.RatePerMin > 0 {
		labels := make([]string, len(best.PerDevice))
		downs := make([]float64, len(best.PerDevice))
		horizon := 0.0
		for _, d := range best.PerDevice {
			if d.DownSec > horizon {
				horizon = d.DownSec
			}
		}
		if horizon < 1 {
			horizon = 1
		}
		for i, d := range best.PerDevice {
			suffix := ""
			if d.Dead {
				suffix = " †"
			}
			labels[i] = fmt.Sprintf("%s (%d moved)%s", d.Name, d.Displaced, suffix)
			downs[i] = d.DownSec / horizon
		}
		out += "\n" + textplot.PercentBars(
			fmt.Sprintf("Relative downtime at %.0f faults/min, %s (†=dead)", best.RatePerMin, best.Placement),
			labels, downs, 40)
	}
	return out
}

// FaultHorizonFor sizes a fault window to cover a workload: arrivals span
// Streams/RatePerSec seconds, plus twice the longest stream's camera span for
// the serving tail. The CLI's -faults flag uses it so single runs fault the
// whole trace.
func FaultHorizonFor(w fleet.WorkloadConfig) time.Duration {
	arrivalSpan := float64(w.Streams) / w.RatePerSec
	serveSpan := float64(w.MaxFrames) * w.PeriodSec * 2
	return time.Duration((arrivalSpan + serveSpan) * float64(time.Second))
}
