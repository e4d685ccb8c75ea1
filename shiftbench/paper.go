package main

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/confgraph"
	"repro/internal/loader"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/runtime"
	"repro/internal/scene"
	"repro/internal/zoo"
)

// paperSystemSeed seeds every cell's fresh simulated Xavier NX, and the
// characterization, as experiments.TableIII does with its default Env.
const paperSystemSeed = 1

// methodKeys name the six Table III methods in metric names, in row order.
var methodKeys = [...]string{"marlin", "marlin_tiny", "shift", "oracle_e", "oracle_a", "oracle_l"}

// methodNames are the Table III row labels, aligned with methodKeys.
var methodNames = [len(methodKeys)]string{"Marlin", "Marlin Tiny", "SHIFT", "Oracle E", "Oracle A", "Oracle L"}

const shiftMethod = 2 // index of SHIFT in methodKeys

// paperInstance is the set-up paper workload: the characterization, the
// confidence graph and the six evaluation scenarios rendered with the
// workload seed.
type paperInstance struct {
	ch        *profile.Characterization
	graph     *confgraph.Graph
	scenarios []*scene.Scenario
	frames    [][]scene.Frame
}

func setupPaper(seed uint64, clk clock, st *setupTimes) (instance, error) {
	ch, graph, err := characterize(clk, st)
	if err != nil {
		return nil, err
	}
	scenarios := scene.EvaluationSuite()
	return &paperInstance{
		ch:        ch,
		graph:     graph,
		scenarios: scenarios,
		frames:    render(clk, st, scenarios, seed),
	}, nil
}

// paperCell is one (method, scenario) cell's result.
type paperCell struct {
	res     *runtime.Result
	err     error
	summary metrics.Summary
	loader  loader.Stats
	util    float64
	host    time.Duration
	policy  policyTimes
}

// buildCell constructs one method's runner on a fresh system. The SHIFT
// runner is pipeline.NewSHIFT; traced, it is the same engine, policy and
// loader assembled by hand so the policy can be wrapped (the trace digest
// check proves the two identical).
func (p *paperInstance) buildCell(m int, sys *zoo.System, tr *tracer, c *paperCell) (runtime.Runner, func() loader.Stats, error) {
	switch methodKeys[m] {
	case "marlin":
		r, err := baseline.NewMarlin(sys, baseline.DefaultMarlinConfig())
		return r, nil, err
	case "marlin_tiny":
		cfg := baseline.DefaultMarlinConfig()
		cfg.Model = "YoloV7-Tiny"
		r, err := baseline.NewMarlin(sys, cfg)
		return r, nil, err
	case "shift":
		opts := pipeline.DefaultOptions()
		if tr == nil {
			r, err := pipeline.NewSHIFT(sys, p.ch, p.graph, opts)
			if err != nil {
				return nil, nil, err
			}
			return r, r.LoaderStats, nil
		}
		pol, err := pipeline.NewPolicy(sys, p.ch, p.graph, opts)
		if err != nil {
			return nil, nil, err
		}
		dml := loader.New(sys, opts.Eviction)
		return runtime.NewEngine(sys, dml, wrapPolicy(pol, tr.clk, &c.policy)), dml.Stats, nil
	case "oracle_e":
		r, err := baseline.NewOracle(sys, baseline.OracleEnergy)
		return r, nil, err
	case "oracle_a":
		r, err := baseline.NewOracle(sys, baseline.OracleAccuracy)
		return r, nil, err
	case "oracle_l":
		r, err := baseline.NewOracle(sys, baseline.OracleLatency)
		return r, nil, err
	}
	return nil, nil, fmt.Errorf("shiftbench: unknown method %q", methodKeys[m])
}

// runCell runs one cell; it writes only to c, so cells fan out freely.
func (p *paperInstance) runCell(m, s int, tr *tracer, c *paperCell) {
	sys := zoo.Default(paperSystemSeed)
	runner, stats, err := p.buildCell(m, sys, tr, c)
	if err != nil {
		c.err = err
		return
	}
	var t0 time.Duration
	if tr != nil {
		t0 = tr.clk.now()
	}
	res, err := runner.Run(p.scenarios[s].Name, p.frames[s])
	if tr != nil {
		c.host = tr.clk.since(t0)
	}
	if err != nil {
		c.err = err
		return
	}
	res.Method = methodNames[m]
	c.res = res
	c.summary = metrics.Summarize(res)
	c.summary.Method = methodNames[m]
	if stats != nil {
		c.loader = stats()
	}
	c.util = peakUtilization(sys)
}

// peakUtilization is the busiest processor's simulated busy time over the
// run's virtual makespan.
func peakUtilization(sys *zoo.System) float64 {
	span := sys.SoC.Clock.Now()
	best := 0.0
	for _, id := range procIDs(sys) {
		if u := ratio(float64(sys.SoC.Meter.BusyTime[id]), float64(span)); u > best {
			best = u
		}
	}
	return best
}

// run serves the 36 cells over the par pool, as experiments.TableIII does.
func (p *paperInstance) run(_ clock, tr *tracer, _ bool) (*outcome, error) {
	ns := len(p.scenarios)
	cells := make([]paperCell, len(methodKeys)*ns)
	var t0 time.Duration
	if tr != nil {
		t0 = tr.clk.now()
	}
	par.ForEach(len(cells), func(i int) { p.runCell(i/ns, i%ns, tr, &cells[i]) })
	if tr != nil {
		tr.parWall += tr.clk.since(t0)
	}

	o := &outcome{}
	var shiftLats []float64
	var utilSum float64
	for i := range cells {
		c := &cells[i]
		m, s := i/ns, i%ns
		name := methodNames[m] + "/" + p.scenarios[s].Name
		if c.err != nil {
			o.ops = append(o.ops, op{name: name})
			continue
		}
		h := newHasher()
		for j := range c.res.Records {
			h.record(&c.res.Records[j])
		}
		o.ops = append(o.ops, op{name: name, digest: h.sum(), ok: true})
		o.reference = append(o.reference, entry{name: name, value: h.sum()})
		o.frames += len(c.res.Records)
		if tr != nil {
			tr.cell[m] += c.host
			tr.parBusy += c.host
			tr.cellFrames[m] += len(c.res.Records)
			tr.policy.add(c.policy)
		}
		if m != shiftMethod {
			continue
		}
		l := &o.layer
		l.frames += len(c.res.Records)
		l.loads += c.loader.Loads
		l.evictions += c.loader.Evictions
		for j := range c.res.Records {
			r := &c.res.Records[j]
			shiftLats = append(shiftLats, r.LatSec)
			if r.LoadedModel {
				l.loadFrames++
			}
			if r.Swapped {
				l.swaps++
			}
		}
		utilSum += c.util
	}
	o.layer.utilization = utilSum / float64(ns)

	for m := range methodKeys {
		var sums []metrics.Summary
		for s := 0; s < ns; s++ {
			if c := &cells[m*ns+s]; c.err == nil {
				sums = append(sums, c.summary)
			}
		}
		if len(sums) != ns {
			continue
		}
		row, err := metrics.Combine(sums)
		if err != nil {
			return nil, err
		}
		o.table = append(o.table, tableRow{method: methodNames[m], iou: row.AvgIoU,
			timeSec: row.AvgTimeSec, energyJ: row.AvgEnergyJ, swaps: row.Swaps})
		if m == shiftMethod {
			o.sim.energyPerFrame = row.AvgEnergyJ
			o.sim.iouMean = row.AvgIoU
		}
	}
	o.sim.latP99 = metrics.Latencies(shiftLats).P99
	return o, nil
}
