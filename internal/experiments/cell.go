package experiments

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/predict"
	"repro/internal/rng"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/zoo"
)

// premiumFraction is the seeded share of streams a tiered cell serves under
// the accuracy-weighted premium tier (the eviction ablation's knob set,
// which pulls the large engines in). Mixing tiers on one memory-tight device
// churns the loader; grouping them is what the residency-affinity placement
// can exploit.
const premiumFraction = 1.0 / 3

// cellOpts are a fleet cell's per-cell inputs beyond its shape. The zero
// value serves one tier with no faults, no journal, homogeneous Poisson
// arrivals, fixed capacity, no recorder and no predictor.
type cellOpts struct {
	// premium tiers the workload: a seeded premiumFraction of streams runs
	// accuracy-weighted knobs at a 4 fps camera (their large engines cannot
	// make 10 fps deadlines on any device) under a tier-qualified affinity
	// key, so placements can (or fail to) group their large-engine working
	// set.
	premium bool
	// faults is the injected fault schedule (nil: fault-free).
	faults []fleet.Fault
	// durable turns the checkpoint journal on at its default cadence.
	durable bool
	// bestEffortEvery marks every Nth stream best-effort, sheddable when a
	// crash displaces more streams than the survivors can absorb (0: none).
	bestEffortEvery int
	// rate and peak shape arrivals as a non-homogeneous Poisson process
	// (nil rate: homogeneous at the workload's RatePerSec).
	rate fleet.RateFn
	peak float64
	// autoscale makes the fleet elastic; the cell's Devices is then its
	// always-on core.
	autoscale *fleet.AutoscaleConfig
	// rec attaches the flight recorder; prefetch turns the swap predictor on.
	rec      *obs.Recorder
	prefetch *predict.Config
}

// withDefaults returns c with every unset field taken from def.
func (c ObsSweepConfig) withDefaults(def ObsSweepConfig) ObsSweepConfig {
	if c.Devices == 0 {
		c.Devices = def.Devices
	}
	if c.Placement == "" {
		c.Placement = def.Placement
	}
	if len(c.Scales) == 0 {
		c.Scales = def.Scales
	}
	if c.Workload.Streams == 0 {
		c.Workload = def.Workload
	}
	if c.Admission == nil {
		c.Admission = def.Admission
	}
	if c.PoolMB == 0 {
		c.PoolMB = def.PoolMB
	}
	return c
}

// deviceNames names a cell's devices edge00, edge01, ….
func deviceNames(n int) []string {
	names := make([]string, max(n, 0))
	for i := range names {
		names[i] = fmt.Sprintf("edge%02d", i)
	}
	return names
}

// serveCell builds one fleet cell and serves it; it is the only place a
// sweep builds a fleet. The cell's devices are Xavier NX systems with
// PoolMB engine arenas and time scales cycled from Scales, serving SHIFT
// streams from a workload generated afresh per cell, so every cell sees
// identical requests with fresh policy state. Every cell must end with no
// residency reference held and no premium (non-best-effort) stream shed.
func serveCell(env *Env, cell ObsSweepConfig, o cellOpts) (*fleet.Result, error) {
	if cell.Devices <= 0 {
		return nil, fmt.Errorf("experiments: invalid device count %d", cell.Devices)
	}
	place, err := fleet.PlacementByName(cell.Placement)
	if err != nil {
		return nil, err
	}
	devices := make([]fleet.DeviceConfig, cell.Devices)
	for i, name := range deviceNames(cell.Devices) {
		devices[i] = fleet.DeviceConfig{Name: name, Scale: cell.Scales[i%len(cell.Scales)]}
	}
	fcfg := fleet.Config{
		Seed:      env.Seed,
		Devices:   devices,
		Placement: place,
		Admission: *cell.Admission,
		NewSystem: func(seed uint64) *zoo.System {
			sys := zoo.Default(seed)
			sys.SoC.Pools[accel.SoCPoolName] = accel.NewMemPool(accel.SoCPoolName, cell.PoolMB*accel.MB)
			return sys
		},
		Recorder:  o.rec,
		Prefetch:  o.prefetch,
		Autoscale: o.autoscale,
	}
	if o.durable {
		fcfg.Durability = &fleet.DurabilityConfig{}
	}
	fl, err := fleet.New(fcfg)
	if err != nil {
		return nil, err
	}
	policy := func(sys *zoo.System) (runtime.Policy, error) {
		return pipeline.NewPolicy(sys, env.Ch, env.Graph, pipeline.DefaultOptions())
	}
	var reqs []fleet.StreamRequest
	if o.rate != nil {
		reqs, err = fleet.GenerateShapedWorkload(cell.Workload, o.rate, o.peak, env.Frames, policy)
	} else {
		reqs, err = fleet.GenerateWorkload(cell.Workload, env.Frames, policy)
	}
	if err != nil {
		return nil, err
	}
	if o.premium {
		premiumOpts := pipeline.DefaultOptions()
		premiumOpts.Sched.Knobs = sched.Knobs{Accuracy: 3, Energy: 0.2, Latency: 0.2}
		premium := func(sys *zoo.System) (runtime.Policy, error) {
			return pipeline.NewPolicy(sys, env.Ch, env.Graph, premiumOpts)
		}
		tr := rng.New(cell.Workload.Seed).Fork("fleet/tiers")
		for i := range reqs {
			if tr.Float64() < premiumFraction {
				reqs[i].Scenario = "premium/" + reqs[i].Scenario
				reqs[i].Policy = premium
				reqs[i].PeriodSec = cell.Workload.PeriodSec * 2.5
				reqs[i].Frames = reqs[i].Frames[:len(reqs[i].Frames)*2/5]
			}
		}
	}
	if o.bestEffortEvery > 0 {
		for i := range reqs {
			reqs[i].BestEffort = (i+1)%o.bestEffortEvery == 0
		}
	}
	run, err := fl.RunWithFaults(reqs, o.faults)
	if err != nil {
		return nil, err
	}
	leaked := 0
	for _, d := range run.Devices {
		leaked += d.LeakedRefs
	}
	if leaked != 0 {
		return nil, fmt.Errorf("leaked %d residency refs", leaked)
	}
	for _, out := range run.Outcomes {
		if out.Shed && !out.BestEffort {
			return nil, fmt.Errorf("shed premium stream %s", out.Name)
		}
	}
	return run, nil
}
