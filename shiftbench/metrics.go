package main

import (
	"time"

	"repro/internal/obs"
)

// metricDef declares one reported metric. BENCHMARK.json at the module root
// lists the same names, units and directions (pinned by TestManifest).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a run with --trace 0 reports: what a user of the
// simulator sees. Host metrics come from untraced runs only; the sim_*
// metrics are simulated outcomes, exact for a seed.
var endToEnd = []metricDef{
	{"frames_per_s", "frames/s", "higher"},
	{"allocs_per_frame", "allocs/frame", "lower"},
	{"bytes_per_frame", "B/frame", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
	{"sim_energy_j_per_frame", "J/frame", "lower"},
	{"sim_iou_mean", "iou", "higher"},
	{"sim_latency_p99_s", "sim_s", "lower"},
}

// perLayer are the metrics a run with --trace 1 reports, grouped by the
// layer they measure. A layer the workload bypasses reports 0.
var perLayer = []metricDef{
	{"fleet.self_ns_per_event", "ns", "lower"},
	{"fleet.events_per_frame", "events/frame", "lower"},
	{"fleet.ondepart_ns_per_stream", "ns", "lower"},
	{"fleet.sim_miss_rate", "frac", "lower"},
	{"runtime.policy_step_ns_per_frame", "ns", "lower"},
	{"paper.cell_ns_per_frame.marlin", "ns", "lower"},
	{"paper.cell_ns_per_frame.marlin_tiny", "ns", "lower"},
	{"paper.cell_ns_per_frame.shift", "ns", "lower"},
	{"paper.cell_ns_per_frame.oracle_e", "ns", "lower"},
	{"paper.cell_ns_per_frame.oracle_a", "ns", "lower"},
	{"paper.cell_ns_per_frame.oracle_l", "ns", "lower"},
	{"loader.acquire_ns_per_call", "ns", "lower"},
	{"loader.loads_per_kframe", "1/kframe", "lower"},
	{"loader.evictions_per_kframe", "1/kframe", "lower"},
	{"loader.hit_ratio", "frac", "higher"},
	{"accel.exec_ns_per_call", "ns", "lower"},
	{"accel.utilization", "frac", "higher"},
	{"detmodel.detect_ns_per_call", "ns", "lower"},
	{"sched.decide_ns_per_call", "ns", "lower"},
	{"sched.swaps_per_frame", "swaps/frame", "lower"},
	{"img.ncc_ns_per_call", "ns", "lower"},
	{"img.nccsearch_ns_per_call", "ns", "lower"},
	{"scene.render_ns_per_frame", "ns", "lower"},
	{"checkpoint.encode_ns_per_call", "ns", "lower"},
	{"checkpoint.decode_ns_per_call", "ns", "lower"},
	{"checkpoint.writes_per_kframe", "1/kframe", "lower"},
	{"checkpoint.bytes_per_write", "B", "lower"},
	{"checkpoint.replay_frac", "frac", "lower"},
	{"predict.issued_per_kframe", "1/kframe", "lower"},
	{"predict.accuracy", "frac", "higher"},
	{"predict.coverage", "frac", "higher"},
	{"obs.queue_share_p99", "frac", "lower"},
	{"obs.swap_share_p99", "frac", "lower"},
	{"obs.exec_share_p99", "frac", "lower"},
	{"obs.interference_share_p99", "frac", "lower"},
	{"obs.attach_overhead_frac", "frac", "lower"},
	{"profile.characterize_s", "s", "lower"},
	{"confgraph.build_s", "s", "lower"},
	{"par.efficiency", "frac", "higher"},
	{"goruntime.gc_cycles_per_kframe", "1/kframe", "lower"},
	{"goruntime.gc_cpu_frac", "frac", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
}

// values maps metric names to measured values while a report is assembled.
type values map[string]float64

// timedRuns are the host measurements of the untraced repetitions.
type timedRuns struct {
	framesPerSec, allocsPerFrame, bytesPerFrame []float64
}

// endToEndValues assembles the --trace 0 metrics.
func endToEndValues(ref *outcome, runs timedRuns, setups []setupTimes) values {
	return values{
		"frames_per_s":           median(runs.framesPerSec),
		"allocs_per_frame":       median(runs.allocsPerFrame),
		"bytes_per_frame":        median(runs.bytesPerFrame),
		"peak_rss_mb":            peakRSSMB(),
		"setup_s":                medianSetup(setups, func(s setupTimes) float64 { return s.total().Seconds() }),
		"sim_energy_j_per_frame": ref.sim.energyPerFrame,
		"sim_iou_mean":           ref.sim.iouMean,
		"sim_latency_p99_s":      ref.sim.latP99,
	}
}

// tracedRuns are the host measurements of a traced session: alternating
// untraced, recorder-attached and traced repetitions.
type tracedRuns struct {
	plain, recorded, traced []float64 // host seconds per repetition
	layer                   layerTimes
	// attribution is the recorder's decomposition of virtual latency, from
	// the last recorder-attached repetition.
	attribution *obs.Attribution
	plainFrames int
	gc          gcCounters // accumulated over the untraced repetitions
	procs       int
}

// perLayerValues assembles the --trace 1 metrics.
func perLayerValues(ref *outcome, runs *tracedRuns, m *microTimes, setups []setupTimes) values {
	l := &runs.layer
	c := &ref.layer
	ns := func(d time.Duration, n int) float64 { return ratio(float64(d.Nanoseconds()), float64(n)) }
	perK := func(n int) float64 { return 1000 * ratio(float64(n), float64(c.frames)) }
	v := values{
		"fleet.self_ns_per_event": ratio(
			float64((l.fleetRun - l.policy.step - l.policy.other - l.depart).Nanoseconds()), float64(l.events)),
		"fleet.events_per_frame":           ratio(float64(c.events), float64(ref.frames)),
		"fleet.ondepart_ns_per_stream":     ns(l.depart, l.departs),
		"fleet.sim_miss_rate":              ref.sim.missRate,
		"runtime.policy_step_ns_per_frame": ns(l.policy.step, l.policy.steps),
		"loader.loads_per_kframe":          perK(c.loads),
		"loader.evictions_per_kframe":      perK(c.evictions),
		"loader.hit_ratio":                 1 - ratio(float64(c.loadFrames), float64(c.frames)),
		"accel.utilization":                c.utilization,
		"detmodel.detect_ns_per_call":      ns(m.detect, m.detects),
		"sched.decide_ns_per_call":         ns(m.decide, m.decides),
		"sched.swaps_per_frame":            ratio(float64(c.swaps), float64(c.frames)),
		"img.ncc_ns_per_call":              ns(m.ncc, m.nccs),
		"img.nccsearch_ns_per_call":        ns(m.nccSearch, m.searches),
		"scene.render_ns_per_frame": medianSetup(setups, func(s setupTimes) float64 {
			return ns(s.render, s.renderedFrames)
		}),
		"checkpoint.encode_ns_per_call": ns(m.encode, m.encodes),
		"checkpoint.decode_ns_per_call": ns(m.decode, m.decodes),
		"checkpoint.writes_per_kframe":  perK(c.journalWrites),
		"checkpoint.bytes_per_write":    ratio(float64(c.journalBytes), float64(c.journalWrites)),
		"checkpoint.replay_frac":        ratio(float64(c.replayed), float64(c.frames)),
		"predict.issued_per_kframe":     perK(c.prefetch.Issued),
		"predict.accuracy":              c.prefetch.Accuracy(),
		"predict.coverage":              c.prefetch.Coverage(),
		"obs.attach_overhead_frac":      overhead(runs.recorded, runs.plain),
		"profile.characterize_s": medianSetup(setups, func(s setupTimes) float64 {
			return s.characterize.Seconds()
		}),
		"confgraph.build_s":              medianSetup(setups, func(s setupTimes) float64 { return s.graph.Seconds() }),
		"goruntime.gc_cycles_per_kframe": 1000 * ratio(float64(runs.gc.cycles), float64(runs.plainFrames)),
		"goruntime.gc_cpu_frac":          ratio(runs.gc.gcCPU, runs.gc.totalCPU),
		"trace.overhead_frac":            overhead(runs.traced, runs.plain),
	}
	// The fleet-day monitor times Acquire and Exec in the traced run; the
	// other workloads time the same layers in their micro rows.
	if l.acquires > 0 {
		v["loader.acquire_ns_per_call"] = ns(l.acquire, l.acquires)
		v["accel.exec_ns_per_call"] = ns(l.exec, l.execs)
	} else {
		v["loader.acquire_ns_per_call"] = ns(m.ensure, m.ensures)
		v["accel.exec_ns_per_call"] = ns(m.exec, m.execs)
	}
	for i, k := range methodKeys {
		v["paper.cell_ns_per_frame."+k] = ns(l.cell[i], l.cellFrames[i])
	}
	v["par.efficiency"] = ratio(l.parBusy.Seconds(), l.parWall.Seconds()*float64(runs.procs))
	if a := runs.attribution; a != nil {
		v["obs.queue_share_p99"] = a.QueueShareOfP99
		v["obs.swap_share_p99"] = a.SwapStallShareOfP99
		v["obs.exec_share_p99"] = a.ExecShareOfP99
		v["obs.interference_share_p99"] = a.InterferenceShareOfP99
	}
	return v
}

// overhead is median(with)/median(without) - 1, or 0 when either is
// missing.
func overhead(with, without []float64) float64 {
	if len(with) == 0 || len(without) == 0 {
		return 0
	}
	return median(with)/median(without) - 1
}

// medianSetup is the median of f over the set-up repetitions.
func medianSetup(setups []setupTimes, f func(setupTimes) float64) float64 {
	xs := make([]float64, len(setups))
	for i, s := range setups {
		xs[i] = f(s)
	}
	return median(xs)
}
