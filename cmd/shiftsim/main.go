// Command shiftsim runs continuous object detection over the evaluation
// scenarios with any of the paper's methods — SHIFT, Marlin, Marlin Tiny,
// the three Oracles, or a fixed single model — and prints Table III-style
// summaries.
//
// Usage:
//
//	shiftsim -all                         # full Table III over the suite
//	shiftsim -method SHIFT -scenario scenario1 -timeline
//	shiftsim -method single -model YoloV7-Tiny -proc dla0 -scenario scenario3
//	shiftsim -method SHIFT -acc-knob 1 -energy-knob 2 -latency-knob 0.5
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/baseline"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/runtime"
	"repro/internal/scene"
	"repro/internal/sched"
	"repro/internal/textplot"
)

func main() {
	var (
		all        = flag.Bool("all", false, "run every Table III method over the whole suite")
		method     = flag.String("method", "SHIFT", "method: SHIFT, Marlin, MarlinTiny, OracleE, OracleA, OracleL, single")
		model      = flag.String("model", "YoloV7", "model name for -method single")
		proc       = flag.String("proc", "gpu", "processor for -method single")
		scenario   = flag.String("scenario", "", "scenario name (default: whole suite)")
		file       = flag.String("file", "", "JSON scenario file (see scene.ParseScenario; overrides -scenario)")
		seed       = flag.Uint64("seed", 1, "experiment seed")
		valFrames  = flag.Int("val-frames", experiments.DefaultValidationFrames, "validation frames for characterization")
		timeline   = flag.Bool("timeline", false, "print the per-scenario SHIFT timeline (Figs. 3/4 style)")
		accKnob    = flag.Float64("acc-knob", 1.0, "accuracy knob (SHIFT)")
		energyKnob = flag.Float64("energy-knob", 0.5, "energy knob (SHIFT)")
		latKnob    = flag.Float64("latency-knob", 0.5, "latency knob (SHIFT)")
		goalAcc    = flag.Float64("goal-accuracy", 0.25, "accuracy threshold (SHIFT)")
		momentum   = flag.Int("momentum", 30, "momentum window (SHIFT)")
		maxLat     = flag.Float64("max-latency", 0, "hard per-inference latency bound in seconds (SHIFT, 0 = off)")
		maxEnergy  = flag.Float64("max-energy", 0, "hard per-inference energy bound in Joules (SHIFT, 0 = off)")
	)
	flag.Parse()

	if err := run(*all, *method, *model, *proc, *scenario, *file, *seed, *valFrames, *timeline,
		sched.Knobs{Accuracy: *accKnob, Energy: *energyKnob, Latency: *latKnob}, *goalAcc, *momentum,
		*maxLat, *maxEnergy); err != nil {
		fmt.Fprintln(os.Stderr, "shiftsim:", err)
		os.Exit(1)
	}
}

func run(all bool, method, model, proc, scenarioName, file string, seed uint64, valFrames int,
	timeline bool, knobs sched.Knobs, goalAcc float64, momentum int, maxLat, maxEnergy float64) error {
	fmt.Printf("characterizing %d-frame validation set (seed %d)...\n", valFrames, seed)
	env, err := experiments.NewEnv(seed, valFrames)
	if err != nil {
		return err
	}

	if all {
		fmt.Println("running all methods over the six-scenario evaluation suite...")
		res, err := experiments.TableIII(env, nil)
		if err != nil {
			return err
		}
		fmt.Println(res.Report())
		return nil
	}

	scenarios := scene.EvaluationSuite()
	switch {
	case file != "":
		data, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		sc, err := scene.ParseScenario(data)
		if err != nil {
			return err
		}
		scenarios = []*scene.Scenario{sc}
	case scenarioName != "":
		sc, err := scene.ByName(scenarioName)
		if err != nil {
			return err
		}
		scenarios = []*scene.Scenario{sc}
	}

	var summaries []metrics.Summary
	for _, sc := range scenarios {
		runner, err := buildRunner(env, method, model, proc, knobs, goalAcc, momentum, maxLat, maxEnergy)
		if err != nil {
			return err
		}
		r, err := runner.Run(sc.Name, env.Frames(sc))
		if err != nil {
			return err
		}
		s := metrics.Summarize(r)
		fmt.Printf("%-12s %-10s iou=%.3f time=%.3fs energy=%.3fJ success=%.1f%% nonGPU=%.1f%% swaps=%d pairs=%.0f\n",
			r.Method, sc.Name, s.AvgIoU, s.AvgTimeSec, s.AvgEnergyJ,
			s.SuccessRate*100, s.NonGPUFrac*100, s.Swaps, s.PairsUsed)
		summaries = append(summaries, s)

		if timeline {
			tl, err := experiments.Timeline(env, sc)
			if err != nil {
				return err
			}
			fmt.Println(tl.Report())
		}
	}
	if len(summaries) > 1 {
		combined, err := metrics.Combine(summaries)
		if err != nil {
			return err
		}
		rows := [][]string{
			{"IoU", "Time (s)", "Energy (J)", "Success", "Non-GPU", "Swaps", "Pairs"},
			{
				fmt.Sprintf("%.3f", combined.AvgIoU),
				fmt.Sprintf("%.3f", combined.AvgTimeSec),
				fmt.Sprintf("%.3f", combined.AvgEnergyJ),
				fmt.Sprintf("%.1f%%", combined.SuccessRate*100),
				fmt.Sprintf("%.1f%%", combined.NonGPUFrac*100),
				fmt.Sprintf("%d", combined.Swaps),
				fmt.Sprintf("%.1f", combined.PairsUsed),
			},
		}
		fmt.Println(textplot.Table("suite average ("+combined.Method+")", rows))
	}
	return nil
}

// buildRunner constructs a fresh runner per scenario so clock, memory and
// meters start clean.
func buildRunner(env *experiments.Env, method, model, proc string,
	knobs sched.Knobs, goalAcc float64, momentum int, maxLat, maxEnergy float64) (runtime.Runner, error) {
	sys := env.System()
	switch method {
	case "SHIFT":
		opts := pipeline.DefaultOptions()
		opts.Sched.Knobs = knobs
		opts.Sched.AccuracyThreshold = goalAcc
		opts.Sched.Momentum = momentum
		opts.Sched.MaxLatencySec = maxLat
		opts.Sched.MaxEnergyJ = maxEnergy
		return pipeline.NewSHIFT(sys, env.Ch, env.Graph, opts)
	case "Marlin":
		return baseline.NewMarlin(sys, baseline.DefaultMarlinConfig())
	case "MarlinTiny":
		cfg := baseline.DefaultMarlinConfig()
		cfg.Model = "YoloV7-Tiny"
		return baseline.NewMarlin(sys, cfg)
	case "OracleE":
		return baseline.NewOracle(sys, baseline.OracleEnergy)
	case "OracleA":
		return baseline.NewOracle(sys, baseline.OracleAccuracy)
	case "OracleL":
		return baseline.NewOracle(sys, baseline.OracleLatency)
	case "single":
		return baseline.NewSingleModel(sys, model, proc)
	default:
		return nil, fmt.Errorf("unknown method %q", method)
	}
}
