package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/accel"
	"repro/internal/confgraph"
	"repro/internal/detmodel"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/rng"
	"repro/internal/runtime"
	"repro/internal/scene"
	"repro/internal/zoo"
)

// fleet-day: one compressed diurnal day in the shape of the reduced
// experiments.ScaleSweep cell — 100 identical devices, 5 000 monitor streams
// of 40-120 frames, round-robin placement, 3 streams per device and an
// unbounded queue — squeezed into 450 s at 4 fps. At the cell's 1 fps over
// 1 800 s the same offered concurrency collides so rarely on a device that
// the p99 latency sits on the edge of the collision tail and moves ±20%
// between seeds; at 4 fps it sits inside the tail.
const (
	dayDevices   = 100
	dayStreams   = 5000
	daySpanSec   = 450
	dayAmp       = 0.85
	dayPeriodSec = 0.25
	dayMinFrames = 40
	dayMaxFrames = 120
	dayPerDevice = 3
)

// fleet-churn: SHIFT streams on small memory-tight fleets under a
// crash-only fault schedule, with the journal and TAGE prefetch on. A cell
// is 8 devices (time scales alternating 1 and 1.25, 1300 MB engine pools,
// residency-affinity placement) serving 240 streams of 120-240 frames at
// 2.5 fps, 40 per evaluation scenario, every 4th best-effort, through 12
// crashes a minute. A run serves 4 independent cells and pools them: one
// cell's energy per frame and p99 latency moved 5% and 13% between seeds.
// Streams watch windows at seeded offsets into their scenario; all opening
// on the scenario's first frames, energy per frame swung ±10% with how soon
// SHIFT left the initial pair. Up to 4 streams share a device and a crashed
// worker restarts in 2 s on average, so the survivors have slots for a
// crashed device's streams: none was shed on seeds 1-10 or 7919, where 3
// streams per device or 5 s restarts shed best-effort streams.
const (
	churnCells         = 4
	churnDevices       = 8
	churnPerScenario   = 40
	churnRatePerSec    = 0.1
	churnPeriodSec     = 0.4
	churnPerDevice     = 4
	churnPoolMB        = 1300
	churnCrashesPerMin = 12
	churnRestartSec    = 2
	churnBestEffort    = 4
)

var churnScales = []float64{1, 1.25}

// fleetInstance is a set-up fleet workload: one or more independent fleet
// cells over frames rendered with the workload seed.
type fleetInstance struct {
	seed      uint64
	scenarios []*scene.Scenario
	frames    [][]scene.Frame
	ch        *profile.Characterization
	graph     *confgraph.Graph
	cells     []*fleetCell
	// churn marks fleet-churn, the workload that exercises the decision,
	// pixel and checkpoint layers.
	churn bool
}

// fleetCell is one fleet and the load offered to it: generated requests and
// the fault schedule.
type fleetCell struct {
	config func() fleet.Config
	reqs   []fleet.StreamRequest
	faults []fleet.Fault
	// tr is the tracer of the traced run in progress; the fleet-day monitor
	// policy reads it when the fleet builds each stream's policy.
	tr *tracer
}

// source serves the rendered frames to the workload generator.
func (in *fleetInstance) source(sc *scene.Scenario) []scene.Frame {
	for i, s := range in.scenarios {
		if s.Name == sc.Name {
			return in.frames[i]
		}
	}
	return nil
}

func setupFleetDay(seed uint64, clk clock, st *setupTimes) (instance, error) {
	ch, graph, err := characterize(clk, st)
	if err != nil {
		return nil, err
	}
	in := &fleetInstance{seed: seed, ch: ch, graph: graph, scenarios: []*scene.Scenario{scene.Scenario2()}}
	in.frames = render(clk, st, in.scenarios, seed)
	t0 := clk.now()
	base := float64(dayStreams) / daySpanSec
	rate := fleet.DiurnalRate(base, dayAmp, daySpanSec*time.Second)
	wl := fleet.WorkloadConfig{
		Seed:      seed,
		Streams:   dayStreams,
		PeriodSec: dayPeriodSec,
		MinFrames: dayMinFrames,
		MaxFrames: dayMaxFrames,
		Scenarios: in.scenarios,
	}
	cell := &fleetCell{}
	monitorFactory := func(*zoo.System) (runtime.Policy, error) { return &monitor{tr: cell.tr}, nil }
	cell.reqs, err = fleet.GenerateShapedWorkload(wl, rate, base*(1+dayAmp), in.source, monitorFactory)
	st.generate = clk.since(t0)
	if err != nil {
		return nil, err
	}
	devices := make([]fleet.DeviceConfig, dayDevices)
	for i := range devices {
		devices[i] = fleet.DeviceConfig{Name: fmt.Sprintf("edge%04d", i), Scale: 1}
	}
	cell.config = func() fleet.Config {
		return fleet.Config{
			Seed:      seed,
			Devices:   devices,
			Placement: fleet.NewRoundRobin(),
			Admission: fleet.Admission{PerDeviceStreams: dayPerDevice, QueueLimit: -1},
		}
	}
	in.cells = []*fleetCell{cell}
	return in, nil
}

func setupFleetChurn(seed uint64, clk clock, st *setupTimes) (instance, error) {
	ch, graph, err := characterize(clk, st)
	if err != nil {
		return nil, err
	}
	in := &fleetInstance{seed: seed, ch: ch, graph: graph, scenarios: scene.EvaluationSuite(), churn: true}
	in.frames = render(clk, st, in.scenarios, seed)
	t0 := clk.now()
	seeds := rng.New(seed).Fork("shiftbench/fleet-churn")
	for range churnCells {
		cell, err := in.churnCell(seeds)
		if err != nil {
			return nil, err
		}
		in.cells = append(in.cells, cell)
	}
	st.generate = clk.since(t0)
	return in, nil
}

// churnCell generates one fleet-churn cell from the next draws of seeds.
func (in *fleetInstance) churnCell(seeds *rng.Stream) (*fleetCell, error) {
	cellSeed := seeds.Uint64()
	policy := func(sys *zoo.System) (runtime.Policy, error) {
		return pipeline.NewPolicy(sys, in.ch, in.graph, pipeline.DefaultOptions())
	}
	// One generator per scenario at a sixth of the rate: their union is the
	// same Poisson arrival process, with the content mix balanced instead of
	// drawn.
	wl := fleet.DefaultWorkloadConfig()
	wl.RatePerSec = churnRatePerSec / float64(len(in.scenarios))
	wl.PeriodSec = churnPeriodSec
	wl.Streams = churnPerScenario
	cell := &fleetCell{}
	for k, sc := range in.scenarios {
		wl.Seed = seeds.Uint64()
		wl.Scenarios = []*scene.Scenario{sc}
		reqs, err := fleet.GenerateWorkload(wl, in.source, policy)
		if err != nil {
			return nil, err
		}
		// Each stream watches a window at a seeded offset into its
		// scenario rather than the scenario's opening frames, so the
		// streams of one scenario see different content.
		all := in.frames[k]
		for i := range reqs {
			n := len(reqs[i].Frames)
			off := seeds.Intn(len(all) - n + 1)
			reqs[i].Frames = all[off : off+n]
		}
		cell.reqs = append(cell.reqs, reqs...)
	}
	sort.SliceStable(cell.reqs, func(i, j int) bool { return cell.reqs[i].Arrival < cell.reqs[j].Arrival })
	for i := range cell.reqs {
		if (i+1)%churnBestEffort == 0 {
			cell.reqs[i].BestEffort = true
		}
	}
	whole := wl
	whole.Streams = churnPerScenario * len(in.scenarios)
	whole.RatePerSec = churnRatePerSec
	devices := make([]fleet.DeviceConfig, churnDevices)
	names := make([]string, churnDevices)
	for i := range devices {
		devices[i] = fleet.DeviceConfig{Name: fmt.Sprintf("edge%02d", i), Scale: churnScales[i%len(churnScales)]}
		names[i] = devices[i].Name
	}
	var err error
	cell.faults, err = fleet.GenerateFaults(fleet.FaultConfig{
		Seed:                cellSeed,
		RatePerSec:          churnCrashesPerMin / 60.0,
		Horizon:             experiments.FaultHorizonFor(whole),
		PCrash:              1,
		MeanCrashRestartSec: churnRestartSec,
	}, names)
	if err != nil {
		return nil, err
	}
	newSystem := func(seed uint64) *zoo.System {
		sys := zoo.Default(seed)
		sys.SoC.Pools[accel.SoCPoolName] = accel.NewMemPool(accel.SoCPoolName, churnPoolMB*accel.MB)
		return sys
	}
	renderSeed := in.seed
	cell.config = func() fleet.Config {
		pf := predict.DefaultConfig()
		return fleet.Config{
			Seed:       cellSeed,
			Devices:    devices,
			Placement:  fleet.NewResidencyAffinity(),
			Admission:  fleet.Admission{PerDeviceStreams: churnPerDevice, QueueLimit: -1},
			NewSystem:  newSystem,
			Durability: &fleet.DurabilityConfig{RenderSeed: renderSeed},
			Prefetch:   &pf,
		}
	}
	return cell, nil
}

// cellRun is one cell's share of a run.
type cellRun struct {
	host time.Duration
	agg  *fleetAgg
	res  *fleet.Result
	rec  *obs.Recorder
	tr   *tracer
	err  error
}

// run serves every cell on a fresh fleet, the cells fanned out over the par
// pool like the paper grid. Each cell owns its aggregator, recorder and
// tracer, so cells share nothing while they run.
func (in *fleetInstance) run(clk clock, tr *tracer, record bool) (*outcome, error) {
	runs := make([]cellRun, len(in.cells))
	t0 := clk.now()
	par.ForEach(len(in.cells), func(i int) {
		r := &runs[i]
		if tr != nil {
			r.tr = &tracer{clk: tr.clk}
		}
		if record {
			r.rec = obs.NewRecorder()
		}
		r.agg = newFleetAgg()
		c0 := clk.now()
		r.res, r.err = in.cells[i].serve(clk, r.tr, r.rec, r.agg)
		r.host = clk.since(c0)
	})
	if tr != nil && len(in.cells) > 1 {
		tr.parWall += clk.since(t0)
	}
	agg := newFleetAgg()
	var results []*fleet.Result
	var shares []obs.Attribution
	for i := range runs {
		r := &runs[i]
		if r.err != nil {
			return nil, r.err
		}
		agg.merge(r.agg)
		results = append(results, r.res)
		if tr != nil {
			tr.add(&r.tr.layerTimes)
			if len(in.cells) > 1 {
				tr.parBusy += r.host
			}
		}
		if r.rec != nil {
			shares = append(shares, r.rec.Attribution())
		}
	}
	o := agg.outcome(results)
	if len(shares) > 0 {
		a := meanShares(shares)
		o.attribution = &a
	}
	return o, nil
}

// serve runs one cell on a fresh fleet, folding departures into agg.
func (c *fleetCell) serve(clk clock, tr *tracer, rec *obs.Recorder, agg *fleetAgg) (*fleet.Result, error) {
	cfg := c.config()
	cfg.Recorder = rec
	cfg.OnDepart = agg.depart
	reqs := c.reqs
	if tr != nil {
		cfg.OnDepart = func(out *fleet.StreamOutcome) {
			t0 := tr.clk.now()
			agg.depart(out)
			tr.depart += tr.clk.since(t0)
			tr.departs++
		}
		reqs = append([]fleet.StreamRequest(nil), c.reqs...)
		for i := range reqs {
			reqs[i].Policy = wrapFactory(reqs[i].Policy, tr.clk, &tr.policy)
		}
		c.tr = tr
		defer func() { c.tr = nil }()
	}
	fl, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	t0 := clk.now()
	var res *fleet.Result
	if c.faults == nil {
		res, err = fl.Run(reqs)
	} else {
		res, err = fl.RunWithFaults(reqs, c.faults)
	}
	if tr != nil {
		tr.fleetRun += clk.since(t0)
	}
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.events += res.Events
	}
	for _, d := range fl.Devices() {
		if n := d.DML.TotalRefs(); n != 0 {
			return nil, fmt.Errorf("shiftbench: %s leaked %d residency refs", d.Name, n)
		}
	}
	return res, nil
}

// meanShares averages the p99-tail shares of the cells' attributions.
func meanShares(as []obs.Attribution) obs.Attribution {
	var m obs.Attribution
	for _, a := range as {
		m.QueueShareOfP99 += a.QueueShareOfP99
		m.SwapStallShareOfP99 += a.SwapStallShareOfP99
		m.ExecShareOfP99 += a.ExecShareOfP99
		m.InterferenceShareOfP99 += a.InterferenceShareOfP99
	}
	n := float64(len(as))
	m.QueueShareOfP99 /= n
	m.SwapStallShareOfP99 /= n
	m.ExecShareOfP99 /= n
	m.InterferenceShareOfP99 /= n
	return m
}

// monitor is the fixed-pair policy fleet-day serves: one YOLOv7-tiny engine
// on the GPU, execute, detect — the same Step calls as the monitor policy of
// experiments.ScaleSweep, so per-frame decision cost stays negligible next
// to the event loop. A traced run times its Acquire and Exec calls.
type monitor struct {
	pair zoo.Pair
	tr   *tracer
}

func (p *monitor) Name() string { return "fixed-monitor" }

func (p *monitor) Reset(e *runtime.Engine) error {
	for _, rp := range e.System().RuntimePairs() {
		if rp.Model == detmodel.YoloV7Tiny && rp.ProcID == "gpu" {
			p.pair = rp
			return nil
		}
	}
	return fmt.Errorf("shiftbench: no %s@gpu runtime pair", detmodel.YoloV7Tiny)
}

func (p *monitor) Step(st *runtime.Step) error {
	var t0 time.Duration
	if p.tr != nil {
		t0 = p.tr.clk.now()
	}
	pair, err := st.Acquire(p.pair)
	if err != nil {
		return err
	}
	if p.tr != nil {
		t1 := p.tr.clk.now()
		p.tr.acquire += t1 - t0
		p.tr.acquires++
		t0 = t1
	}
	st.Rec().Pair = pair
	if err := st.Exec(pair); err != nil {
		return err
	}
	if p.tr != nil {
		p.tr.exec += p.tr.clk.since(t0)
		p.tr.execs++
	}
	det, err := st.Detect(pair.Model)
	if err != nil {
		return err
	}
	st.RecordDetection(det)
	return nil
}

// fleetAgg reduces stream outcomes as they depart, then releases their
// per-frame records, as experiments.ScaleSweep does, so a 5 000-stream day
// keeps a flat memory profile.
type fleetAgg struct {
	digests    map[*fleet.StreamOutcome]uint64
	frames     int
	missed     int
	loadFrames int
	swaps      int
	energy     float64
	iou        float64
	hist       *latHist
}

func newFleetAgg() *fleetAgg {
	return &fleetAgg{digests: map[*fleet.StreamOutcome]uint64{}, hist: newLatHist()}
}

// merge folds another cell's totals into g; merging in cell order keeps the
// float sums deterministic.
func (g *fleetAgg) merge(o *fleetAgg) {
	for out, d := range o.digests {
		g.digests[out] = d
	}
	g.frames += o.frames
	g.missed += o.missed
	g.loadFrames += o.loadFrames
	g.swaps += o.swaps
	g.energy += o.energy
	g.iou += o.iou
	g.hist.merge(o.hist)
}

func (g *fleetAgg) depart(out *fleet.StreamOutcome) {
	g.add(out)
	out.Stream = nil
}

// add digests one stream's simulated outcome and folds it into the totals.
func (g *fleetAgg) add(out *fleet.StreamOutcome) {
	h := newHasher()
	h.str(out.Name)
	h.str(out.Device)
	h.u64(uint64(out.AdmittedAt))
	h.int(out.Migrations)
	h.int(out.ReplayedFrames)
	h.f64(out.DowntimeSec)
	sr := out.Stream
	for i := range sr.Result.Records {
		r := &sr.Result.Records[i]
		h.record(r)
		g.energy += r.EnergyJ
		g.iou += r.IoU
		if r.LoadedModel {
			g.loadFrames++
		}
		if r.Swapped {
			g.swaps++
		}
	}
	for i := range sr.Timings {
		t := &sr.Timings[i]
		h.timing(t)
		g.hist.add(t.LatencySec())
		if t.Missed() {
			g.missed++
		}
	}
	g.frames += len(sr.Timings)
	g.digests[out] = h.sum()
}

// outcome assembles the run's operations, reference values and counts over
// the cells' results, in cell order. Shed streams never depart but keep
// their partial records; they are digested here.
func (g *fleetAgg) outcome(results []*fleet.Result) *outcome {
	o := &outcome{}
	var tot fleet.Result
	var horizon time.Duration
	var util float64
	var devices int
	streams := newHasher()
	for ci, res := range results {
		for _, out := range res.Outcomes {
			d, departed := g.digests[out]
			if !departed && out.Stream != nil {
				g.add(out)
				d = g.digests[out]
			}
			name := out.Name
			if len(results) > 1 {
				name = fmt.Sprintf("cell%d/%s", ci, name)
			}
			o.ops = append(o.ops, op{name: name, digest: d, ok: !out.Rejected && !out.Aborted && !out.Shed})
			streams.u64(d)
		}
		tot.Offered += res.Offered
		tot.Served += res.Served
		tot.Rejected += res.Rejected
		tot.Aborted += res.Aborted
		tot.Shed += res.Shed
		tot.Events += res.Events
		tot.Migrations += res.Migrations
		tot.Crashes += res.Crashes
		tot.JournalWrites += res.JournalWrites
		tot.JournalBytes += res.JournalBytes
		tot.ReplayedFrames += res.ReplayedFrames
		tot.Prefetch.Add(res.Prefetch)
		horizon = max(horizon, res.Horizon)
		for _, d := range res.Devices {
			o.layer.loads += d.Loads
			o.layer.evictions += d.Evicts
			util += d.Utilization
			devices++
		}
	}
	o.frames = g.frames
	pf := newHasher()
	pf.prefetch(tot.Prefetch)
	o.reference = []entry{
		{"offered", uint64(tot.Offered)},
		{"served", uint64(tot.Served)},
		{"rejected", uint64(tot.Rejected)},
		{"aborted", uint64(tot.Aborted)},
		{"shed", uint64(tot.Shed)},
		{"frames", uint64(g.frames)},
		{"events", uint64(tot.Events)},
		{"horizon_ns", uint64(horizon)},
		{"migrations", uint64(tot.Migrations)},
		{"crashes", uint64(tot.Crashes)},
		{"journal_writes", uint64(tot.JournalWrites)},
		{"journal_bytes", uint64(tot.JournalBytes)},
		{"replayed_frames", uint64(tot.ReplayedFrames)},
		{"latency_hist", g.hist.digest()},
		{"energy_bits", math.Float64bits(g.energy)},
		{"iou_bits", math.Float64bits(g.iou)},
		{"prefetch", pf.sum()},
		{"streams", streams.sum()},
	}
	o.sim = simOutputs{
		energyPerFrame: ratio(g.energy, float64(g.frames)),
		iouMean:        ratio(g.iou, float64(g.frames)),
		latP99:         g.hist.quantile(0.99),
		missRate:       ratio(float64(g.missed), float64(g.frames)),
	}
	l := &o.layer
	l.frames = g.frames
	l.loadFrames = g.loadFrames
	l.swaps = g.swaps
	l.events = tot.Events
	l.journalWrites = tot.JournalWrites
	l.journalBytes = tot.JournalBytes
	l.replayed = tot.ReplayedFrames
	l.prefetch = tot.Prefetch
	l.utilization = ratio(util, float64(devices))
	return o
}

// latHist is the fixed-resolution latency histogram of experiments.ScaleSweep:
// 1 ms buckets to 60 s plus an overflow bucket. Bucketing is pure
// arithmetic, so quantiles are exactly deterministic.
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

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.over += o.over
	h.n += o.n
}

func (h *latHist) digest() uint64 {
	d := newHasher()
	for i, c := range h.counts {
		if c > 0 {
			d.int(i)
			d.u64(uint64(c))
		}
	}
	d.u64(uint64(h.over))
	return d.sum()
}
