package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/detmodel"
	"repro/internal/fleet"
	"repro/internal/runtime"
	"repro/internal/scene"
	"repro/internal/zoo"
)

// ScaleSweep drives the fleet event loop at production scale. Each cell
// serves a day-long diurnal trace on an N-device fleet and reports its
// simulated serving profile. The flagship cell is the ROADMAP's
// 1 000-device / 100 000-stream fleet; the loop's host time is measured by
// shiftbench's fleet-day workload, not here.

// ScaleSweepCell is one fleet-scale configuration.
type ScaleSweepCell struct {
	// Devices and Streams size the fleet and the offered trace.
	Devices int
	Streams int
	// SpanSec overrides the config's trace span for this cell (0: default).
	// The small reference cells compress the day into an hour so the fleet
	// saturates and the per-event selection cost dominates.
	SpanSec float64
}

// ScaleSweepConfig parameterizes the scale sweep.
type ScaleSweepConfig struct {
	// Cells lists the fleet scales served (default: the 1 000-device /
	// 100 000-stream flagship alone).
	Cells []ScaleSweepCell
	// SpanSec is the trace length in seconds (default 86 400 — one day).
	SpanSec float64
	// DiurnalAmp shapes the day/night swing: base×(1 + amp·sin(2πt/span)),
	// one full cycle over the span (default 0.85). The base rate is
	// Streams/SpanSec, so the whole trace always fits the span.
	DiurnalAmp float64
	// PeriodSec is the camera frame period (default 1 — a monitoring rate,
	// not the 10 fps serving benchmarks: scale cells measure loop overhead,
	// not frame compute).
	PeriodSec float64
	// MinFrames/MaxFrames bound stream lengths (defaults 40/120).
	MinFrames, MaxFrames int
	// Admission gates per-device concurrency; nil means 3 streams/device
	// with an unbounded queue (every offered stream is eventually served).
	Admission *fleet.Admission
	// Seed drives workload generation and device jitter (0: env.Seed).
	Seed uint64
}

// DefaultScaleSweepConfig returns the standard grid.
func DefaultScaleSweepConfig() ScaleSweepConfig {
	adm := fleet.Admission{PerDeviceStreams: 3, QueueLimit: -1}
	return ScaleSweepConfig{
		Cells:      []ScaleSweepCell{{Devices: 1000, Streams: 100_000}},
		SpanSec:    86_400,
		DiurnalAmp: 0.85,
		PeriodSec:  1,
		MinFrames:  40,
		MaxFrames:  120,
		Admission:  &adm,
	}
}

// ScaleSweepRow is one served cell. Every column is simulated and
// deterministic per seed and (Devices, Streams, Span).
type ScaleSweepRow struct {
	Devices int
	Streams int
	SpanSec float64

	Served   int
	Rejected int
	Frames   int
	Events   int64
	// HorizonSec is the simulated makespan — the "day" the run covered.
	HorizonSec float64
	// LatencyP50Sec/P99Sec and DeadlineMissRate come from a fixed 1 ms
	// histogram over every served frame (see latHist).
	LatencyP50Sec    float64
	LatencyP99Sec    float64
	DeadlineMissRate float64
}

// ScaleSweepResult is the full grid.
type ScaleSweepResult struct {
	Rows []ScaleSweepRow
}

// Row returns the first cell with the given device count.
func (r *ScaleSweepResult) Row(devices int) (ScaleSweepRow, bool) {
	for _, row := range r.Rows {
		if row.Devices == devices {
			return row, true
		}
	}
	return ScaleSweepRow{}, false
}

// monitorPolicy is the deliberately lightweight per-frame policy the scale
// sweep serves: one fixed (model, processor) engine pair, execute, detect.
// The sweep measures the simulator's event loop — selection, heap
// bookkeeping, placement, admission — so per-frame decision cost
// must stay negligible next to it; the SHIFT pipeline policy would dominate
// the profile and mask the loop win the sweep exists to show.
type monitorPolicy struct{ pair zoo.Pair }

func (p *monitorPolicy) Name() string { return "fixed-monitor" }

func (p *monitorPolicy) Reset(e *runtime.Engine) error {
	for _, rp := range e.System().RuntimePairs() {
		if rp.Model == detmodel.YoloV7Tiny && rp.ProcID == "gpu" {
			p.pair = rp
			return nil
		}
	}
	return fmt.Errorf("experiments: no %s@gpu runtime pair", detmodel.YoloV7Tiny)
}

func (p *monitorPolicy) Step(st *runtime.Step) error {
	pair, err := st.Acquire(p.pair)
	if err != nil {
		return err
	}
	st.Rec().Pair = pair
	if err := st.Exec(pair); err != nil {
		return err
	}
	det, err := st.Detect(pair.Model)
	if err != nil {
		return err
	}
	st.RecordDetection(det)
	return nil
}

// latHist is a fixed-resolution latency histogram: 1 ms buckets to 60 s
// plus an overflow bucket. Collecting raw per-frame latencies at 100 000
// streams would cost gigabytes; the histogram reduces them in O(1) memory
// and stays exactly deterministic (bucketing is pure arithmetic).
type latHist struct {
	counts []int64
	over   int64
	n      int64
}

const latHistBuckets = 60_000

func newLatHist() *latHist { return &latHist{counts: make([]int64, latHistBuckets)} }

func (h *latHist) add(sec float64) {
	h.n++
	i := int(sec * 1000)
	if i < 0 {
		i = 0
	}
	if i >= len(h.counts) {
		h.over++
		return
	}
	h.counts[i]++
}

// quantile returns the q-quantile as its bucket's midpoint (the overflow
// bucket reports the 60 s cap).
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q * float64(h.n-1))
	var cum int64
	for i, c := range h.counts {
		cum += c
		if c > 0 && cum > rank {
			return (float64(i) + 0.5) / 1000
		}
	}
	return float64(latHistBuckets) / 1000
}

// scaleAgg reduces stream outcomes incrementally through the fleet's
// OnDepart hook, then releases each stream's per-frame records — the only
// way a 100 000-stream run keeps a flat memory profile.
type scaleAgg struct {
	frames int
	missed int
	hist   *latHist
}

func (g *scaleAgg) depart(out *fleet.StreamOutcome) {
	sr := out.Stream
	g.frames += len(sr.Timings)
	g.missed += sr.MissCount()
	for _, tm := range sr.Timings {
		g.hist.add(tm.LatencySec())
	}
	out.Stream = nil
}

// ScaleSweep runs the grid. Each cell generates its own seeded diurnal
// trace (deterministic per (seed, streams, span)), serves it, and reports
// the simulated serving profile.
func ScaleSweep(env *Env, cfg ScaleSweepConfig) (*ScaleSweepResult, error) {
	def := DefaultScaleSweepConfig()
	if len(cfg.Cells) == 0 {
		cfg.Cells = def.Cells
	}
	if cfg.SpanSec == 0 {
		cfg.SpanSec = def.SpanSec
	}
	if cfg.SpanSec < 0 {
		return nil, fmt.Errorf("experiments: negative scale-sweep span %v", cfg.SpanSec)
	}
	if cfg.DiurnalAmp == 0 {
		cfg.DiurnalAmp = def.DiurnalAmp
	}
	if cfg.DiurnalAmp < 0 || cfg.DiurnalAmp >= 1 {
		return nil, fmt.Errorf("experiments: diurnal amplitude %v outside [0, 1)", cfg.DiurnalAmp)
	}
	if cfg.PeriodSec == 0 {
		cfg.PeriodSec = def.PeriodSec
	}
	if cfg.MinFrames == 0 {
		cfg.MinFrames = def.MinFrames
	}
	if cfg.MaxFrames == 0 {
		cfg.MaxFrames = def.MaxFrames
	}
	if cfg.Admission == nil {
		cfg.Admission = def.Admission
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = env.Seed
	}
	policy := func(*zoo.System) (runtime.Policy, error) { return &monitorPolicy{}, nil }

	res := &ScaleSweepResult{}
	for _, cell := range cfg.Cells {
		if cell.Devices <= 0 || cell.Streams <= 0 {
			return nil, fmt.Errorf("experiments: scale cell needs positive devices and streams, got %d/%d",
				cell.Devices, cell.Streams)
		}
		span := cell.SpanSec
		if span == 0 {
			span = cfg.SpanSec
		}
		base := float64(cell.Streams) / span
		rate := fleet.DiurnalRate(base, cfg.DiurnalAmp, time.Duration(span*float64(time.Second)))
		wl := fleet.WorkloadConfig{
			Seed:      seed,
			Streams:   cell.Streams,
			PeriodSec: cfg.PeriodSec,
			MinFrames: cfg.MinFrames,
			MaxFrames: cfg.MaxFrames,
			Scenarios: []*scene.Scenario{scene.Scenario2()},
		}
		reqs, err := fleet.GenerateShapedWorkload(wl, rate, base*(1+cfg.DiurnalAmp), env.Frames, policy)
		if err != nil {
			return nil, err
		}
		devices := make([]fleet.DeviceConfig, cell.Devices)
		for i := range devices {
			devices[i] = fleet.DeviceConfig{Name: fmt.Sprintf("edge%04d", i), Scale: 1}
		}
		agg := &scaleAgg{hist: newLatHist()}
		fl, err := fleet.New(fleet.Config{
			Seed:      seed,
			Devices:   devices,
			Placement: fleet.NewRoundRobin(),
			Admission: *cfg.Admission,
			OnDepart:  agg.depart,
		})
		if err != nil {
			return nil, err
		}
		out, err := fl.Run(reqs)
		if err != nil {
			return nil, err
		}
		for _, d := range fl.Devices() {
			if n := d.DML.TotalRefs(); n != 0 {
				return nil, fmt.Errorf("experiments: scale cell %d-dev leaked %d refs on %s",
					cell.Devices, n, d.Name)
			}
		}
		row := ScaleSweepRow{
			Devices:          cell.Devices,
			Streams:          cell.Streams,
			SpanSec:          span,
			Served:           out.Served,
			Rejected:         out.Rejected,
			Frames:           agg.frames,
			Events:           out.Events,
			HorizonSec:       out.Horizon.Seconds(),
			LatencyP50Sec:    agg.hist.quantile(0.50),
			LatencyP99Sec:    agg.hist.quantile(0.99),
			DeadlineMissRate: missRate(agg.missed, agg.frames),
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func missRate(missed, frames int) float64 {
	if frames == 0 {
		return 0
	}
	return float64(missed) / float64(frames)
}

// Report renders the grid.
func (r *ScaleSweepResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet scale sweep: simulated serving profile\n")
	fmt.Fprintf(&b, "%8s %8s %10s %8s %8s %12s\n",
		"devices", "streams", "events", "p50_s", "p99_s", "miss")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d %8d %10d %8.3f %8.3f %11.2f%%\n",
			row.Devices, row.Streams, row.Events,
			row.LatencyP50Sec, row.LatencyP99Sec, 100*row.DeadlineMissRate)
	}
	return b.String()
}
