package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
)

// session is one workload set up at defaultSeed with its untraced reference
// run, shared by the tests.
type session struct {
	inst instance
	ref  *outcome
}

var (
	sessionsMu sync.Mutex
	sessions   = map[string]*session{}
)

func setupSession(t *testing.T, workload string) *session {
	t.Helper()
	sessionsMu.Lock()
	defer sessionsMu.Unlock()
	if s, ok := sessions[workload]; ok {
		return s
	}
	w, ok := workloadByName(workload)
	if !ok {
		t.Fatalf("unknown workload %q", workload)
	}
	s := &session{}
	err := withClock(func(clk clock) error {
		var st setupTimes
		var err error
		if s.inst, err = w.setup(defaultSeed, clk, &st); err != nil {
			return err
		}
		s.ref, err = s.inst.run(clk, nil, false)
		return err
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	sessions[workload] = s
	return s
}

func referenceValue(t *testing.T, o *outcome, name string) uint64 {
	t.Helper()
	for _, e := range o.reference {
		if e.name == name {
			return e.value
		}
	}
	t.Fatalf("no reference value %q", name)
	return 0
}

// TestPinnedReferencesMatch runs every workload at the default seed and
// checks it against its pinned digests, which must exist.
func TestPinnedReferencesMatch(t *testing.T) {
	for _, w := range workloads {
		pins := pinned(w.name)
		if len(pins) == 0 {
			t.Errorf("%s: no pinned reference", w.name)
			continue
		}
		o := setupSession(t, w.name).ref
		if n := failedOps(o, nil, pins); n != 0 {
			t.Errorf("%s: %d operations fail their pinned reference: %s", w.name, n, mismatches(o, pins))
		}
	}
}

// TestPaperMatchesCommittedBench pins the paper workload to the Table III
// headline keys committed in BENCH_2026-08-08.json.
func TestPaperMatchesCommittedBench(t *testing.T) {
	raw, err := os.ReadFile("../BENCH_2026-08-08.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Headline map[string]float64 `json:"headline"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	o := setupSession(t, "paper").ref
	for _, c := range []struct{ method, prefix string }{{"SHIFT", "shift"}, {"Marlin", "marlin"}} {
		var row *tableRow
		for i := range o.table {
			if o.table[i].method == c.method {
				row = &o.table[i]
			}
		}
		if row == nil {
			t.Fatalf("no %s row", c.method)
		}
		got := map[string]float64{
			"_iou":      row.iou,
			"_time_s":   row.timeSec,
			"_energy_j": row.energyJ,
			"_swaps":    float64(row.swaps),
		}
		for _, suffix := range []string{"_iou", "_time_s", "_energy_j", "_swaps"} {
			key := c.prefix + suffix
			want, ok := doc.Headline[key]
			if !ok {
				t.Fatalf("committed artifact has no %s", key)
			}
			if math.Float64bits(got[suffix]) != math.Float64bits(want) {
				t.Errorf("%s = %v, committed %v", key, got[suffix], want)
			}
		}
	}
	if o.sim.energyPerFrame != doc.Headline["shift_energy_j"] || o.sim.iouMean != doc.Headline["shift_iou"] {
		t.Errorf("sim metrics %v J/frame, IoU %v are not the SHIFT row", o.sim.energyPerFrame, o.sim.iouMean)
	}
}

// TestFleetDayMatchesScaleSweep proves the benchmark's monitor policy and
// fleet-day cell faithful: experiments.ScaleSweep serves the same cell with
// its own monitor and must produce the same outcome.
func TestFleetDayMatchesScaleSweep(t *testing.T) {
	env, err := experiments.NewEnv(defaultSeed, 50)
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.ScaleSweep(env, experiments.ScaleSweepConfig{
		Cells:      []experiments.ScaleSweepCell{{Devices: dayDevices, Streams: dayStreams, SpanSec: daySpanSec}},
		DiurnalAmp: dayAmp,
		PeriodSec:  dayPeriodSec,
		MinFrames:  dayMinFrames,
		MaxFrames:  dayMaxFrames,
		Seed:       defaultSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	o := setupSession(t, "fleet-day").ref
	checks := []struct {
		name      string
		got, want float64
	}{
		{"served", float64(referenceValue(t, o, "served")), float64(row.Served)},
		{"rejected", float64(referenceValue(t, o, "rejected")), float64(row.Rejected)},
		{"frames", float64(o.frames), float64(row.Frames)},
		{"events", float64(referenceValue(t, o, "events")), float64(row.Events)},
		{"horizon", time.Duration(referenceValue(t, o, "horizon_ns")).Seconds(), row.HorizonSec},
		{"p99", o.sim.latP99, row.LatencyP99Sec},
		{"miss rate", o.sim.missRate, row.DeadlineMissRate},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s: benchmark %v, ScaleSweep %v", c.name, c.got, c.want)
		}
	}
}

// TestPerturbedReferenceFails shows the correctness check cannot pass
// vacuously: a perturbed pinned value fails the operations it covers and
// turns the report incorrect.
func TestPerturbedReferenceFails(t *testing.T) {
	paper := setupSession(t, "paper").ref
	pins := append([]entry(nil), pinned("paper")...)
	pins[3].value ^= 1
	if n := failedOps(paper, nil, pins); n != 1 {
		t.Errorf("perturbed cell digest fails %d paper cells, want 1", n)
	}

	day := setupSession(t, "fleet-day").ref
	dayPins := append([]entry(nil), pinned("fleet-day")...)
	for i := range dayPins {
		if dayPins[i].name == "events" {
			dayPins[i].value++
		}
	}
	if n := failedOps(day, nil, dayPins); n != len(day.ops) {
		t.Errorf("perturbed run-level value fails %d of %d streams, want all", n, len(day.ops))
	}

	b := &bench{o: options{workload: "paper"}, pinned: pins}
	b.check(paper, "perturbed")
	rep := b.report(endToEnd, values{})
	if rep.correct || rep.failed == 0 || rep.attempted != len(paper.ops) {
		t.Errorf("report correct=%t failed=%d attempted=%d, want incorrect with failures",
			rep.correct, rep.failed, rep.attempted)
	}

	b = &bench{o: options{workload: "paper"}, pinned: pinned("paper")}
	b.check(paper, "pinned")
	if b.failed != 0 {
		t.Errorf("unperturbed reference fails %d operations", b.failed)
	}
}

// TestRepetitionMismatchFails checks the comparison against an earlier
// repetition, which guards every seed without a pinned reference.
func TestRepetitionMismatchFails(t *testing.T) {
	o := setupSession(t, "paper").ref
	other := *o
	other.ops = append([]op(nil), o.ops...)
	other.ops[0].digest ^= 1
	if n := failedOps(&other, o, nil); n != 1 {
		t.Errorf("one changed cell fails %d operations, want 1", n)
	}
	if n := failedOps(o, o, nil); n != 0 {
		t.Errorf("identical repetition fails %d operations", n)
	}
}

// TestTracedRunDoesNotPerturb checks that the forwarding wrappers of a traced
// run leave every simulated output bit-identical, and that the traced run
// reaches the layers it times.
func TestTracedRunDoesNotPerturb(t *testing.T) {
	for _, w := range workloads {
		s := setupSession(t, w.name)
		var traced, recorded *outcome
		tr := &tracer{}
		err := withClock(func(clk clock) error {
			tr.clk = clk
			var err error
			if traced, err = s.inst.run(clk, tr, false); err != nil {
				return err
			}
			recorded, err = s.inst.run(clk, nil, true)
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if n := failedOps(traced, s.ref, pinned(w.name)); n != 0 {
			t.Errorf("%s: traced run differs from untraced in %d operations", w.name, n)
		}
		if n := failedOps(recorded, s.ref, pinned(w.name)); n != 0 {
			t.Errorf("%s: recorder-attached run differs from detached in %d operations", w.name, n)
		}
		if tr.policy.steps == 0 {
			t.Errorf("%s: traced run timed no policy steps", w.name)
		}
		_, isFleet := s.inst.(*fleetInstance)
		if isFleet && (tr.events == 0 || tr.departs == 0 || recorded.attribution == nil) {
			t.Errorf("%s: traced fleet run saw %d events, %d departures, attribution %v",
				w.name, tr.events, tr.departs, recorded.attribution)
		}
		if w.name == "fleet-day" && (tr.acquires == 0 || tr.execs == 0) {
			t.Errorf("fleet-day: monitor timed %d acquires, %d execs", tr.acquires, tr.execs)
		}
	}
}

// TestBypassCounts pins the bypass predictions as counts: paper runs no
// fleet event loop, and fleet-day writes no checkpoint and swaps no pair.
func TestBypassCounts(t *testing.T) {
	paper := setupSession(t, "paper").ref
	if paper.layer.events != 0 {
		t.Errorf("paper: %d fleet events", paper.layer.events)
	}
	day := setupSession(t, "fleet-day").ref
	if day.layer.journalWrites != 0 || day.layer.swaps != 0 {
		t.Errorf("fleet-day: %d checkpoint writes, %d sched swaps", day.layer.journalWrites, day.layer.swaps)
	}
	churn := setupSession(t, "fleet-churn").ref
	l := churn.layer
	if l.journalWrites == 0 || l.swaps == 0 || l.replayed == 0 || l.prefetch.Issued == 0 || l.events == 0 {
		t.Errorf("fleet-churn does not reach its layers: %+v", l)
	}
	for _, w := range workloads {
		if o := setupSession(t, w.name).ref; failedOps(o, nil, nil) != 0 {
			t.Errorf("%s: operations fail at the default seed", w.name)
		}
	}
}

// TestManifest keeps BENCHMARK.json and the program's metric and workload
// tables in step.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: manifest %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("manifest has %d+%d metrics, program %d+%d",
			len(m.EndToEnd), len(m.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		got := m.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("end-to-end %d: manifest %+v, program %+v", i, got, d)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", got.Name, got.Bound)
		}
	}
	for i, d := range perLayer {
		got := m.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer %d: manifest %+v, program %+v", i, got, d)
		}
	}
	if len(m.Paths) != 1 || m.Paths[0] != "shiftbench" || !strings.Contains(strings.Join(m.Command, " "), "shiftbench/") {
		t.Errorf("manifest command %v / paths %v do not name shiftbench", m.Command, m.Paths)
	}
}
