package experiments

import (
	"fmt"
	"time"

	"repro/internal/fleet"
	"repro/internal/textplot"
)

// The elasticity grid's fixed shape: the elastic fleet's always-on core
// (its warm pool tops out above the fixed size so scale-out has headroom to
// win), a 12× burst of the base rate inside [40 s, 65 s), and a diurnal
// swing base×(1 + 0.85·sin(2πt/100 s)).
const (
	autoscaleBaseDevices = 2
	burstFactor          = 12
	burstStart           = 40 * time.Second
	burstLen             = 25 * time.Second
	diurnalAmp           = 0.85
	diurnalPeriod        = 100 * time.Second
)

// autoscaleController is the elastic cells' controller:
// fleet.DefaultAutoscaleConfig tightened to a 2 s control loop with
// ScaleOutStep 2 and an 8-device "auto" warm pool at scale 1.
func autoscaleController() *fleet.AutoscaleConfig {
	auto := fleet.DefaultAutoscaleConfig()
	auto.Interval = 2 * time.Second
	auto.ScaleOutStep = 2
	auto.Templates = []fleet.DeviceTemplate{{Prefix: "auto", Scale: 1, Count: 8}}
	return &auto
}

// AutoscaleSweepConfig parameterizes the elasticity experiment: workload
// shape × placement policy, each served twice — by a fixed reference fleet
// and by an elastic fleet that starts smaller and scales on the SLO.
type AutoscaleSweepConfig struct {
	// Shapes lists the arrival shapes swept: "burst" (a traffic spike) and
	// "diurnal" (a sinusoidal day/night swing). Default both.
	Shapes []string
	// Placements lists the dispatch policies compared per shape (default
	// round-robin and residency-affinity).
	Placements []string
	// FixedDevices sizes the fixed reference fleet (default 4 — the
	// FleetSweep flagship).
	FixedDevices int
	// Scales cycles per-device accel time scales (default {1, 1.25}).
	Scales []float64
	// Workload is the base trace (stream count, camera period, lengths);
	// its RatePerSec is the *base* rate the shapes modulate.
	Workload fleet.WorkloadConfig
	// Admission gates per-device concurrency; nil means 3 streams/device
	// with an unbounded queue, so fixed and elastic fleets serve the same
	// stream population and differ in latency only.
	Admission *fleet.Admission
	// PoolMB sizes each device's SoC engine arena in MB (default 1300, the
	// memory-tight fleet tier).
	PoolMB int64
}

// DefaultAutoscaleSweepConfig returns the standard grid: a 12× burst and an
// 0.85-amplitude diurnal swing over a 20-stream trace, served by the fixed
// 4-device FleetSweep reference and by a 2-device elastic core with an
// 8-device warm pool behind a 2 s control loop.
func DefaultAutoscaleSweepConfig() AutoscaleSweepConfig {
	adm := fleet.Admission{PerDeviceStreams: 3, QueueLimit: -1}
	wl := fleet.DefaultWorkloadConfig()
	wl.Streams = 20
	wl.RatePerSec = 0.08
	return AutoscaleSweepConfig{
		Shapes:       []string{"burst", "diurnal"},
		Placements:   []string{"round-robin", "residency-affinity"},
		FixedDevices: 4,
		Scales:       []float64{1, 1.25},
		Workload:     wl,
		Admission:    &adm,
		PoolMB:       1300,
	}
}

// AutoscaleSweepRow is one (shape, placement, mode) cell of the grid. Mode
// is "fixed" (the reference fleet) or "elastic" (autoscaled).
type AutoscaleSweepRow struct {
	Shape     string
	Placement string
	Mode      string
	Devices   int // configured devices: fixed size, or the elastic base
	fleet.Summary
	// HorizonSec is the cell's makespan; PerDevice carries the cell's
	// device stats (provision/retire times).
	HorizonSec float64
	PerDevice  []fleet.DeviceStats
}

// AutoscaleSweepResult is the full grid.
type AutoscaleSweepResult struct {
	Workload fleet.WorkloadConfig
	Rows     []AutoscaleSweepRow
}

// Row returns the cell for a shape, placement and mode.
func (r *AutoscaleSweepResult) Row(shape, placement, mode string) (AutoscaleSweepRow, bool) {
	for _, row := range r.Rows {
		if row.Shape == shape && row.Placement == placement && row.Mode == mode {
			return row, true
		}
	}
	return AutoscaleSweepRow{}, false
}

// AutoscaleSweep sweeps workload shape × placement under two capacity
// regimes: the fixed reference fleet, and an elastic fleet whose SLO-driven
// autoscaler provisions warm-pool devices when queue depth or rolling
// per-device p99 breach the target and drains idle ones back — migrating
// their live sessions through the checkpoint/restore path. Every cell
// serves an identical shaped trace (non-homogeneous Poisson arrivals via
// fleet.GenerateShapedWorkload) and is checked leak-free; the whole grid is
// deterministic per seed.
func AutoscaleSweep(env *Env, cfg AutoscaleSweepConfig) (*AutoscaleSweepResult, error) {
	def := DefaultAutoscaleSweepConfig()
	if len(cfg.Shapes) == 0 {
		cfg.Shapes = def.Shapes
	}
	if len(cfg.Placements) == 0 {
		cfg.Placements = def.Placements
	}
	base := ObsSweepConfig{Devices: cfg.FixedDevices, Scales: cfg.Scales, Workload: cfg.Workload,
		Admission: cfg.Admission, PoolMB: cfg.PoolMB}.withDefaults(ObsSweepConfig{
		Devices: def.FixedDevices, Scales: def.Scales, Workload: def.Workload,
		Admission: def.Admission, PoolMB: def.PoolMB})
	if base.Workload.RatePerSec <= 0 {
		return nil, fmt.Errorf("experiments: autoscale sweep needs a positive base rate, got %v",
			base.Workload.RatePerSec)
	}
	res := &AutoscaleSweepResult{Workload: base.Workload}
	for _, shape := range cfg.Shapes {
		var o cellOpts
		switch rate := base.Workload.RatePerSec; shape {
		case "burst":
			o.rate, o.peak = fleet.BurstRate(rate, burstFactor, burstStart, burstLen), rate*burstFactor
		case "diurnal":
			o.rate, o.peak = fleet.DiurnalRate(rate, diurnalAmp, diurnalPeriod), rate*(1+diurnalAmp)
		default:
			return nil, fmt.Errorf("experiments: unknown workload shape %q", shape)
		}
		for _, pname := range cfg.Placements {
			for _, mode := range []string{"fixed", "elastic"} {
				cell, o := base, o
				cell.Placement = pname
				if mode == "elastic" {
					cell.Devices = autoscaleBaseDevices
					o.autoscale = autoscaleController()
				}
				run, err := serveCell(env, cell, o)
				if err != nil {
					return nil, fmt.Errorf("experiments: autoscale %s×%s×%s: %w", shape, pname, mode, err)
				}
				res.Rows = append(res.Rows, AutoscaleSweepRow{
					Shape:      shape,
					Placement:  pname,
					Mode:       mode,
					Devices:    cell.Devices,
					Summary:    fleet.Summarize(run),
					HorizonSec: run.Horizon.Seconds(),
					PerDevice:  run.Devices,
				})
			}
		}
	}
	return res, nil
}

// Report renders the grid as a table plus the device timeline of the first
// elastic burst cell — when each warm-pool device came and went.
func (r *AutoscaleSweepResult) Report() string {
	rows := [][]string{{"Shape", "Placement", "Mode", "Served", "Lat p50 (s)",
		"Lat p99 (s)", "Miss", "Queue (s)", "Out", "In", "Drain", "Peak dev"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Shape,
			row.Placement,
			row.Mode,
			fmt.Sprintf("%d/%d", row.Served, row.Offered),
			fmt.Sprintf("%.3f", row.Latency.P50),
			fmt.Sprintf("%.3f", row.Latency.P99),
			fmt.Sprintf("%.1f%%", row.DeadlineMissRate*100),
			fmt.Sprintf("%.2f", row.AvgQueueDelaySec),
			fmt.Sprintf("%d", row.ScaleOuts),
			fmt.Sprintf("%d", row.ScaleIns),
			fmt.Sprintf("%d", row.Drained),
			fmt.Sprintf("%d", row.PeakDevices),
		})
	}
	out := textplot.Table(fmt.Sprintf(
		"Elastic autoscaling: %d streams, base rate %.2f/s, SLO-driven warm pool",
		r.Workload.Streams, r.Workload.RatePerSec), rows)
	// Timeline plot: the first elastic cell with scale activity. Devices
	// never retired run to the cell's horizon.
	for _, row := range r.Rows {
		if row.Mode != "elastic" || row.ScaleOuts == 0 {
			continue
		}
		var labels []string
		var spans []float64
		for _, d := range row.PerDevice {
			if !d.Auto {
				continue
			}
			end := d.RetiredSec
			if !d.Retired {
				end = row.HorizonSec
			}
			labels = append(labels, fmt.Sprintf("%s %4.0fs→%4.0fs", d.Name, d.ProvisionedSec, end))
			spans = append(spans, (end-d.ProvisionedSec)/row.HorizonSec)
		}
		if len(spans) == 0 {
			continue
		}
		out += "\n" + textplot.PercentBars(
			fmt.Sprintf("Warm-pool device lifetimes, %s×%s (fraction of the %.0fs horizon)",
				row.Shape, row.Placement, row.HorizonSec),
			labels, spans, 40)
		break
	}
	return out
}
