// Command fleetsim serves a seeded open-loop workload of SHIFT streams on a
// simulated multi-device fleet: K heterogeneous Xavier-NX-class devices
// behind a dispatcher with admission control and a pluggable placement
// policy. It prints the per-device serving table and utilization plot for
// one run, or the full device-count × placement grid with -sweep.
//
// With -faults, a seeded fault schedule (transient outages, permanent
// deaths, latency brownouts) is injected and in-flight streams are
// checkpointed and migrated across the surviving devices; the report then
// includes the recovery line (migrations, downtime, post-fault tail).
//
// With -autoscale, the elasticity grid runs instead: burst and diurnal
// workload shapes served by the fixed reference fleet and by an elastic
// fleet whose SLO-driven autoscaler provisions warm-pool devices under
// pressure and drains idle ones back (migrating their live sessions).
//
// With -prefetch, the predictive-prefetch contrast cell runs: a miss-heavy
// oscillating workload served twice — TAGE swap predictor off, then on —
// reporting the predictor scorecard (coverage/accuracy/timeliness) and the
// before/after swap-stall share of the p99 latency tail.
//
// With -workers N, serving splits across real OS processes: a coordinator
// spawns N worker subprocesses of this binary (each re-exec'd with -worker),
// drives streams over line-delimited JSON on stdio pipes, and journals a
// versioned checkpoint per chunk. Add -kill-one to SIGKILL a worker mid-run:
// its streams resume on the survivors from the journal, and every stream's
// decision digest is verified against an uninterrupted in-process serve.
//
// Usage:
//
//	fleetsim -devices 4 -placement residency-affinity
//	fleetsim -devices 2 -streams 24 -rate 0.5 -budget 2
//	fleetsim -devices 4 -faults 6
//	fleetsim -autoscale
//	fleetsim -prefetch
//	fleetsim -sweep
//	fleetsim -workers 2 -streams 8 -kill-one
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/fleet"
)

func main() {
	var (
		devices    = flag.Int("devices", 2, "number of devices in the fleet")
		scales     = flag.String("scales", "1,1.25", "comma-separated per-device latency scales, cycled")
		placement  = flag.String("placement", "residency-affinity", "placement: round-robin, least-outstanding, residency-affinity")
		streams    = flag.Int("streams", 16, "streams offered")
		rate       = flag.Float64("rate", 0.25, "mean stream arrival rate per second")
		period     = flag.Float64("period", 0.1, "camera frame period in seconds")
		budget     = flag.Int("budget", 3, "admission budget: max concurrent streams per device (0 = unlimited)")
		queue      = flag.Int("queue", 8, "admission queue slots when saturated (0 = reject immediately, -1 = unbounded)")
		poolMB     = flag.Int64("pool-mb", 1300, "per-device engine memory arena in MB")
		seed       = flag.Uint64("seed", 1, "experiment seed")
		valFrames  = flag.Int("val-frames", experiments.DefaultValidationFrames, "validation frames for characterization")
		sweep      = flag.Bool("sweep", false, "run the full device-count × placement grid (experiments.FleetSweep)")
		faults     = flag.Float64("faults", 0, "mean device faults per minute; > 0 injects outages/deaths/brownouts with checkpoint/migration (experiments.FaultSweep)")
		autoscale  = flag.Bool("autoscale", false, "run the elasticity grid: fixed vs SLO-autoscaled fleets under burst and diurnal workloads (experiments.AutoscaleSweep)")
		prefetch   = flag.Bool("prefetch", false, "run the predictive-prefetch contrast cell: a miss-heavy workload served with the TAGE swap predictor off then on (experiments.PrefetchSweep)")
		trace      = flag.String("trace", "", "write the serving run's flight-recorder spans as Chrome trace-event JSON to this file (single-cell run; open in chrome://tracing or Perfetto)")
		worker     = flag.String("worker", "", "run as a worker process with this device name, protocol on stdio (spawned by -workers)")
		workers    = flag.Int("workers", 0, "coordinator mode: spawn N worker subprocesses and serve -streams across them")
		killOne    = flag.Bool("kill-one", false, "with -workers: SIGKILL worker w0 after its first journaled chunk to exercise crash recovery")
		journalDir = flag.String("journal-dir", "", "with -workers: persist each stream's latest checkpoint to this directory")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *worker != "" {
		// Stdout is the protocol channel; nothing else runs in this mode.
		if err := runWorker(*worker, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "fleetsim worker:", err)
			os.Exit(1)
		}
		return
	}
	if err := validateWorkersMode(*workers, *killOne, *journalDir, *sweep, *autoscale, *faults, *trace, *prefetch); err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(1)
	}
	if *workers > 0 {
		if err := runCoordinator(*workers, *streams, *period, *seed, *killOne, *journalDir); err != nil {
			fmt.Fprintln(os.Stderr, "fleetsim:", err)
			os.Exit(1)
		}
		return
	}

	if err := run(*devices, *scales, *placement, *streams, *rate, *period,
		*budget, *queue, *poolMB, *seed, *valFrames, *sweep, *faults, *autoscale, *prefetch, *trace, set); err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(1)
	}
}

// validateWorkersMode rejects a negative -workers, the coordinator-only
// flags without -workers, and the flags coordinator mode cannot honor — the
// other experiment grids, and -trace: the flight recorder observes the
// in-process event loop, and worker subprocesses serve out-of-process, so
// there is nothing to trace.
func validateWorkersMode(workers int, killOne bool, journalDir string, sweep, autoscale bool, faults float64, trace string, prefetch bool) error {
	if workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", workers)
	}
	if workers == 0 {
		if killOne || journalDir != "" {
			return fmt.Errorf("-kill-one and -journal-dir require -workers")
		}
		return nil
	}
	if sweep || autoscale || faults > 0 || prefetch {
		return fmt.Errorf("-workers is mutually exclusive with -sweep, -autoscale, -faults, and -prefetch")
	}
	if trace != "" {
		return fmt.Errorf("-trace is mutually exclusive with -workers (the flight recorder observes the in-process event loop)")
	}
	return nil
}

// validate rejects malformed flags up front — one line on stderr and a
// non-zero exit, instead of a panic (or a multi-second characterization)
// deep in the run.
func validate(devices int, placement string, streams int, rate, period float64,
	budget, queue int, poolMB int64, valFrames int, faults float64) error {
	if _, err := fleet.PlacementByName(placement); err != nil {
		return err
	}
	if devices <= 0 {
		return fmt.Errorf("-devices must be positive, got %d", devices)
	}
	if streams <= 0 {
		return fmt.Errorf("-streams must be positive, got %d", streams)
	}
	if rate <= 0 {
		return fmt.Errorf("-rate must be positive, got %v", rate)
	}
	if period <= 0 {
		return fmt.Errorf("-period must be positive, got %v", period)
	}
	if budget < 0 {
		return fmt.Errorf("-budget must be >= 0 (0 = unlimited), got %d", budget)
	}
	if queue < -1 {
		return fmt.Errorf("-queue must be >= -1 (-1 = unbounded), got %d", queue)
	}
	if poolMB <= 0 {
		return fmt.Errorf("-pool-mb must be positive, got %d", poolMB)
	}
	if valFrames <= 0 {
		return fmt.Errorf("-val-frames must be positive, got %d", valFrames)
	}
	if faults < 0 {
		return fmt.Errorf("-faults must be >= 0, got %v", faults)
	}
	return nil
}

// run executes the selected experiment. set records which flags the user
// passed explicitly, so the -autoscale grid keeps its tuned defaults unless
// a flag was actually given — and flags a mode genuinely cannot honor are
// rejected instead of silently ignored.
func run(devices int, scales, placement string, streams int, rate, period float64,
	budget, queue int, poolMB int64, seed uint64, valFrames int, sweep bool, faults float64,
	autoscale, prefetch bool, trace string, set map[string]bool) error {
	if err := validate(devices, placement, streams, rate, period, budget, queue, poolMB, valFrames, faults); err != nil {
		return err
	}
	if autoscale && faults > 0 {
		return fmt.Errorf("-autoscale and -faults are mutually exclusive")
	}
	if autoscale && sweep {
		return fmt.Errorf("-autoscale and -sweep are mutually exclusive")
	}
	if prefetch && (sweep || autoscale || faults > 0) {
		return fmt.Errorf("-prefetch is mutually exclusive with -sweep, -autoscale, and -faults")
	}
	if prefetch && trace != "" {
		return fmt.Errorf("-trace is mutually exclusive with -prefetch (the contrast cell attaches its own recorders; see experiments.PrefetchSweep)")
	}
	if trace != "" && (sweep || autoscale || faults > 0) {
		return fmt.Errorf("-trace applies to the single serving run only; it is mutually exclusive with -sweep, -autoscale and -faults")
	}
	scaleList, err := parseScales(scales)
	if err != nil {
		return err
	}

	fmt.Printf("characterizing %d-frame validation set (seed %d)...\n", valFrames, seed)
	env, err := experiments.NewEnv(seed, valFrames)
	if err != nil {
		return err
	}

	workload := fleet.DefaultWorkloadConfig()
	workload.Seed = seed
	workload.Streams = streams
	workload.RatePerSec = rate
	workload.PeriodSec = period
	admission := fleet.Admission{PerDeviceStreams: budget, QueueLimit: queue}

	if autoscale {
		cfg := experiments.DefaultAutoscaleSweepConfig()
		cfg.Placements = []string{placement}
		cfg.Scales = scaleList
		cfg.PoolMB = poolMB
		cfg.Workload.Seed = seed
		if set["devices"] {
			cfg.FixedDevices = devices // the fixed reference fleet's size
		}
		if set["streams"] {
			cfg.Workload.Streams = streams
		}
		if set["rate"] {
			cfg.Workload.RatePerSec = rate // the base rate the shapes modulate
		}
		if set["period"] {
			cfg.Workload.PeriodSec = period
		}
		if set["budget"] || set["queue"] {
			adm := *cfg.Admission
			if set["budget"] {
				adm.PerDeviceStreams = budget
			}
			if set["queue"] {
				adm.QueueLimit = queue
			}
			cfg.Admission = &adm
		}
		res, err := experiments.AutoscaleSweep(env, cfg)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Println(res.Report())
		return nil
	}

	if prefetch {
		cfg := experiments.DefaultPrefetchSweepConfig()
		cfg.Cell.Workload.Seed = seed
		if set["devices"] {
			cfg.Cell.Devices = devices
		}
		if set["placement"] {
			cfg.Cell.Placement = placement
		}
		if set["scales"] {
			cfg.Cell.Scales = scaleList
		}
		if set["streams"] {
			cfg.Cell.Workload.Streams = streams
		}
		if set["rate"] {
			cfg.Cell.Workload.RatePerSec = rate
		}
		if set["period"] {
			cfg.Cell.Workload.PeriodSec = period
		}
		if set["pool-mb"] {
			cfg.Cell.PoolMB = poolMB
		}
		if set["budget"] || set["queue"] {
			cfg.Cell.Admission = &admission
		}
		res, err := experiments.PrefetchSweep(env, cfg)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Println(res.Report())
		return nil
	}

	if faults > 0 {
		fcfg := fleet.DefaultFaultConfig()
		fcfg.Horizon = experiments.FaultHorizonFor(workload)
		fltCfg := experiments.FaultSweepConfig{
			RatesPerMin: []float64{0, faults},
			Placements:  []string{placement},
			Devices:     devices,
			Scales:      scaleList,
			Workload:    workload,
			Admission:   &admission,
			PoolMB:      poolMB,
			Fault:       fcfg,
		}
		res, err := experiments.FaultSweep(env, fltCfg)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Println(res.Report())
		return nil
	}

	if trace != "" {
		ocfg := experiments.ObsSweepConfig{
			Devices:   devices,
			Placement: placement,
			Scales:    scaleList,
			Workload:  workload,
			Admission: &admission,
			PoolMB:    poolMB,
		}
		res, err := experiments.ObsSweep(env, ocfg)
		if err != nil {
			return err
		}
		f, err := os.Create(trace)
		if err != nil {
			return err
		}
		if err := res.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println()
		fmt.Println(res.Report())
		fmt.Printf("wrote Chrome trace (%d spans) to %s — open in chrome://tracing or Perfetto\n", res.Spans, trace)
		return nil
	}

	cfg := experiments.FleetSweepConfig{
		Workload:  workload,
		Admission: &admission,
		PoolMB:    poolMB,
		Scales:    scaleList,
	}
	if !sweep {
		cfg.DeviceCounts = []int{devices}
		cfg.Placements = []string{placement}
	}
	res, err := experiments.FleetSweep(env, cfg)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Println(res.Report())
	return nil
}

// parseScales parses "1,1.25" into scale factors.
func parseScales(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("invalid scale %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scales given")
	}
	return out, nil
}
