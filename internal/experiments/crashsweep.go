package experiments

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/textplot"
)

// CrashSweepConfig parameterizes the crash-recovery experiment: worker-crash
// rate × placement policy under one seeded workload, served with the
// durability journal on (a checkpoint every 10 served frames per stream), so
// every crash is recovered from checkpoint wire bytes rather than live
// memory.
type CrashSweepConfig struct {
	// RatesPerMin lists the mean fleet-wide crash rates swept (crashes per
	// minute; 0 is the crash-free reference row). Default 0, 6, 12.
	RatesPerMin []float64
	// Placements lists the dispatch policies compared at each rate (default
	// round-robin and residency-affinity).
	Placements []string
	// Devices, Workload and Admission shape every cell, identical across
	// the grid; unset fields default as in DefaultObsSweepConfig, whose
	// scales and 1300 MB pool every cell uses.
	Devices   int
	Workload  fleet.WorkloadConfig
	Admission *fleet.Admission
	// BestEffortEvery marks every Nth stream best-effort — sheddable when a
	// crash displaces more streams than the survivors can absorb, so premium
	// streams always recover first. Default 4; negative disables.
	BestEffortEvery int
	// MeanRestartSec is the mean crashed-process restart time (default 5).
	MeanRestartSec float64
}

// DefaultCrashSweepConfig returns the standard grid.
func DefaultCrashSweepConfig() CrashSweepConfig {
	cell := DefaultObsSweepConfig()
	return CrashSweepConfig{
		RatesPerMin:     []float64{0, 6, 12},
		Placements:      []string{"round-robin", "residency-affinity"},
		Devices:         cell.Devices,
		Workload:        cell.Workload,
		Admission:       cell.Admission,
		BestEffortEvery: 4,
		MeanRestartSec:  5,
	}
}

// CrashSweepRow is one (crash rate, placement) cell of the grid.
type CrashSweepRow struct {
	RatePerMin float64
	Placement  string
	Faults     int
	fleet.Summary
	// PerDevice carries the cell's device stats (crashes, displacements).
	PerDevice []fleet.DeviceStats
}

// CrashSweepResult is the full grid.
type CrashSweepResult struct {
	Workload fleet.WorkloadConfig
	Devices  int
	Rows     []CrashSweepRow
}

// Row returns the cell for a crash rate and placement.
func (r *CrashSweepResult) Row(ratePerMin float64, placement string) (CrashSweepRow, bool) {
	for _, row := range r.Rows {
		if row.RatePerMin == ratePerMin && row.Placement == placement {
			return row, true
		}
	}
	return CrashSweepRow{}, false
}

// CrashSweep sweeps worker-crash rate × placement policy under one seeded
// workload on a journaled fleet: every fault is a process kill (the device's
// live session state is destroyed, not drained), recovery rebuilds each
// stream from its last journaled checkpoint — the versioned wire format — and
// replays the frames lost past it. Every cell enforces the recovery contract:
// premium streams are never shed (only best-effort streams may be, and only
// when a crash destroys more capacity than the survivors hold), and no
// residency reference leaks. The rate-0 row is the crash-free reference.
func CrashSweep(env *Env, cfg CrashSweepConfig) (*CrashSweepResult, error) {
	def := DefaultCrashSweepConfig()
	if cfg.RatesPerMin == nil {
		cfg.RatesPerMin = def.RatesPerMin
	}
	if len(cfg.Placements) == 0 {
		cfg.Placements = def.Placements
	}
	if cfg.BestEffortEvery == 0 {
		cfg.BestEffortEvery = def.BestEffortEvery
	}
	if cfg.MeanRestartSec == 0 {
		cfg.MeanRestartSec = def.MeanRestartSec
	}
	base := ObsSweepConfig{Devices: cfg.Devices, Workload: cfg.Workload,
		Admission: cfg.Admission}.withDefaults(DefaultObsSweepConfig())
	res := &CrashSweepResult{Workload: base.Workload, Devices: base.Devices}
	for _, rate := range cfg.RatesPerMin {
		if rate < 0 {
			return nil, fmt.Errorf("experiments: negative crash rate %v", rate)
		}
		var faults []fleet.Fault
		if rate > 0 {
			// A crash-only mix: every scheduled fault is a process kill.
			fcfg := fleet.FaultConfig{
				Seed:                env.Seed,
				RatePerSec:          rate / 60,
				Horizon:             FaultHorizonFor(base.Workload),
				PCrash:              1,
				MeanCrashRestartSec: cfg.MeanRestartSec,
			}
			var err error
			faults, err = fleet.GenerateFaults(fcfg, deviceNames(base.Devices))
			if err != nil {
				return nil, err
			}
		}
		for _, pname := range cfg.Placements {
			cell := base
			cell.Placement = pname
			run, err := serveCell(env, cell, cellOpts{
				faults:          faults,
				durable:         true,
				bestEffortEvery: cfg.BestEffortEvery,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: crash sweep %v/min×%s: %w", rate, pname, err)
			}
			res.Rows = append(res.Rows, CrashSweepRow{
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

// Report renders the grid as a table plus a replay gauge for the
// highest-rate residency-affinity cell.
func (r *CrashSweepResult) Report() string {
	rows := [][]string{{"Crashes/min", "Placement", "Served", "Shed", "Crashes",
		"Replayed", "Journal (KiB)", "Downtime (s)", "Lat p99 (s)", "Post-fault p99", "Miss"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", row.RatePerMin),
			row.Placement,
			fmt.Sprintf("%d/%d", row.Served, row.Offered),
			fmt.Sprintf("%d", row.Shed),
			fmt.Sprintf("%d", row.Crashes),
			fmt.Sprintf("%d", row.ReplayedFrames),
			fmt.Sprintf("%.1f", float64(row.JournalBytes)/1024),
			fmt.Sprintf("%.2f", row.AvgDowntimeSec),
			fmt.Sprintf("%.3f", row.Latency.P99),
			fmt.Sprintf("%.3f", row.PostFaultP99),
			fmt.Sprintf("%.1f%%", row.DeadlineMissRate*100),
		})
	}
	out := textplot.Table(fmt.Sprintf(
		"Crash recovery: %d streams on %d devices, journaled checkpoints, kill-and-recover",
		r.Workload.Streams, r.Devices), rows)
	var best *CrashSweepRow
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
		crashes := make([]float64, len(best.PerDevice))
		max := 1.0
		for _, d := range best.PerDevice {
			if float64(d.Crashes) > max {
				max = float64(d.Crashes)
			}
		}
		for i, d := range best.PerDevice {
			labels[i] = fmt.Sprintf("%s (%d moved)", d.Name, d.Displaced)
			crashes[i] = float64(d.Crashes) / max
		}
		out += "\n" + textplot.PercentBars(
			fmt.Sprintf("Relative crash count at %.0f crashes/min, %s", best.RatePerMin, best.Placement),
			labels, crashes, 40)
	}
	return out
}
