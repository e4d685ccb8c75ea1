// Command bench runs the benchmark registry (repro.Benchmarks, the same
// list behind `go test -bench .` at the repo root) outside `go test` and
// records the results as BENCH_<date>.json, so the perf trajectory of the
// paper tables, the fleet sweeps and the hot paths (tracker NCC, SHIFT frame
// loop, offline characterization) is tracked commit over commit.
//
// Usage:
//
//	go run ./cmd/bench [-out BENCH_2026-07-28.json] [-date 2026-07-28] [-baseline BENCH_old.json] [-cpuprofile bench.pprof]
//
// With -baseline, per-benchmark speedups against the older file are computed
// and embedded. With -date, the document's date stamp (and the default -out
// filename derived from it) is pinned instead of read from the wall clock,
// so CI can produce byte-stable artifact names. Wall-clock results measure the harness itself; the headline
// block records simulated metrics (virtual seconds and Joules), which are
// deterministic per seed and must not drift when only performance changes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"repro"
	"repro/internal/experiments"
)

// Result is one benchmark measurement.
type Result struct {
	// Unit names what one op is (e.g. "frame", "env", "call").
	Unit        string  `json:"unit"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`
}

// Doc is the serialized benchmark document.
type Doc struct {
	Schema     string             `json:"schema"`
	Date       string             `json:"date"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Results    map[string]Result  `json:"results"`
	Headline   map[string]float64 `json:"headline"`
	// Baseline and Speedup are present when -baseline is given: the older
	// run's results and current-vs-baseline wall-clock ratios.
	Baseline map[string]Result  `json:"baseline,omitempty"`
	Speedup  map[string]float64 `json:"speedup,omitempty"`
	Notes    string             `json:"notes,omitempty"`
}

func main() {
	out := flag.String("out", "", "output JSON path (default BENCH_<date>.json)")
	date := flag.String("date", "", "date stamp (YYYY-MM-DD) for the default -out filename and the Date field; empty means today, which drifts — pass a fixed date for reproducible artifacts in CI")
	basePath := flag.String("baseline", "", "optional older BENCH_*.json to compute speedups against")
	notes := flag.String("notes", "", "free-form notes recorded in the document")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole benchmark run to this file")
	flag.Parse()
	// The registry's bodies log through testing.B, which reads the testing
	// package's flags; defining them after Parse keeps them off this
	// command's own flag set.
	testing.Init()

	stamp := *date
	if stamp == "" {
		stamp = time.Now().Format("2006-01-02") //detlint:allow wallclock default artifact date stamp; -date pins it for reproducible CI runs
	} else if _, err := time.Parse("2006-01-02", stamp); err != nil {
		fatal(fmt.Errorf("-date %q: want YYYY-MM-DD", stamp))
	}
	if *out == "" {
		*out = fmt.Sprintf("BENCH_%s.json", stamp)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote CPU profile %s\n", *cpuprofile)
		}()
	}

	// Load the baseline before spending a minute on benchmarks, so a bad
	// path fails immediately.
	var baseDoc map[string]Result
	if *basePath != "" {
		var err error
		if baseDoc, err = loadBaseline(*basePath); err != nil {
			fatal(err)
		}
	}

	env, err := experiments.NewEnv(1, experiments.DefaultValidationFrames)
	if err != nil {
		fatal(err)
	}

	doc := &Doc{
		Schema:     "repro-bench/v1",
		Date:       stamp,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Results:    map[string]Result{},
		Headline:   map[string]float64{},
		Notes:      *notes,
	}

	for _, bm := range repro.Benchmarks {
		fmt.Fprintf(os.Stderr, "benchmarking %s...\n", bm.Name)
		r := testing.Benchmark(bm.Func(env))
		if r.N == 0 {
			fatal(fmt.Errorf("benchmark %s failed", bm.Name))
		}
		doc.Results[bm.Name] = Result{
			Unit:        bm.Unit,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Iterations:  r.N,
		}
	}

	// Headline simulated metrics: deterministic per seed; a perf-only change
	// must leave them untouched.
	if doc.Headline, err = headline(env); err != nil {
		fatal(err)
	}

	// Fleet-scale headline: the 1 000-device / 100 000-stream flagship trace,
	// from one untimed pass of the full scale grid (the ScaleSweep result
	// times only the registry's reduced 100-device cell). The serving profile
	// (served, frames, events, horizon, latency, misses) is simulated and
	// deterministic per seed — a perf-only change must leave it untouched.
	// fleet1000_events_per_sec is a wall-clock measurement of the harness
	// itself and drifts run to run; it is recorded for the perf trajectory,
	// not for bit-identity.
	scaleRes, err := experiments.ScaleSweep(env, experiments.ScaleSweepConfig{})
	if err != nil {
		fatal(err)
	}
	flagship, ok := scaleRes.Row(1000)
	if !ok {
		fatal(fmt.Errorf("missing 1000-device scale row"))
	}
	doc.Headline["fleet1000_served"] = float64(flagship.Served)
	doc.Headline["fleet1000_frames"] = float64(flagship.Frames)
	doc.Headline["fleet1000_events"] = float64(flagship.Events)
	doc.Headline["fleet1000_horizon_s"] = flagship.HorizonSec
	doc.Headline["fleet1000_p50_latency_s"] = flagship.LatencyP50Sec
	doc.Headline["fleet1000_p99_latency_s"] = flagship.LatencyP99Sec
	doc.Headline["fleet1000_miss_rate"] = flagship.DeadlineMissRate
	doc.Headline["fleet1000_events_per_sec"] = flagship.EventsPerSec
	const scaleNote = "fleet1000_events_per_sec is a wall-clock measurement and drifts " +
		"run to run; every other headline key is simulated and deterministic per seed."
	if doc.Notes == "" {
		doc.Notes = scaleNote
	} else {
		doc.Notes += " " + scaleNote
	}

	if baseDoc != nil {
		doc.Baseline = baseDoc
		doc.Speedup = map[string]float64{}
		for name, cur := range doc.Results {
			if base, ok := baseDoc[name]; ok && cur.NsPerOp > 0 {
				doc.Speedup[name] = base.NsPerOp / cur.NsPerOp
			}
		}
	}

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	report(doc)
}

// headline derives every simulated headline key except the fleet1000_*
// flagship block: Table III, multi-stream, and the fleet sweeps at their
// default grids. The keys are deterministic per seed; a perf-only change
// must leave them untouched.
func headline(env *experiments.Env) (map[string]float64, error) {
	h := map[string]float64{}
	t3, err := experiments.TableIII(env, nil)
	if err != nil {
		return nil, err
	}
	for _, m := range []struct{ method, prefix string }{{"SHIFT", "shift"}, {"Marlin", "marlin"}} {
		s, ok := t3.Summary(m.method)
		if !ok {
			return nil, fmt.Errorf("missing %s summary", m.method)
		}
		h[m.prefix+"_iou"] = s.AvgIoU
		h[m.prefix+"_time_s"] = s.AvgTimeSec
		h[m.prefix+"_energy_j"] = s.AvgEnergyJ
		h[m.prefix+"_swaps"] = float64(s.Swaps)
	}

	// Multi-stream serving headline: simulated contention metrics at 1 and 8
	// concurrent streams. Deterministic per seed, like the Table III block.
	ms, err := experiments.MultiStream(env, experiments.DefaultMultiStreamConfig())
	if err != nil {
		return nil, err
	}
	for _, n := range []int{1, 8} {
		row, ok := ms.Row(n)
		if !ok {
			return nil, fmt.Errorf("missing multi-stream row for %d streams", n)
		}
		prefix := fmt.Sprintf("multistream%d", n)
		h[prefix+"_p99_latency_s"] = row.Latency.P99
		h[prefix+"_miss_rate"] = row.DeadlineMissRate
		h[prefix+"_queue_wait_s"] = row.AvgQueueWaitSec
		h[prefix+"_swaps_per_stream"] = row.SwapsPerStream
	}

	// Fleet serving headline: the multi-device grid's simulated metrics at
	// the largest fleet, round-robin vs residency-affinity. Deterministic
	// per seed, like the other headline blocks.
	fs, err := experiments.FleetSweep(env, experiments.FleetSweepConfig{})
	if err != nil {
		return nil, err
	}
	for _, cell := range []struct {
		placement, prefix string
	}{
		{"round-robin", "fleet4_rr"},
		{"residency-affinity", "fleet4_affinity"},
	} {
		row, ok := fs.Row(4, cell.placement)
		if !ok {
			return nil, fmt.Errorf("missing fleet row for 4×%s", cell.placement)
		}
		h[cell.prefix+"_p99_latency_s"] = row.Latency.P99
		h[cell.prefix+"_miss_rate"] = row.DeadlineMissRate
		h[cell.prefix+"_loads"] = float64(row.Loads)
		h[cell.prefix+"_evictions"] = float64(row.Evictions)
		h[cell.prefix+"_utilization"] = row.AvgUtilization
	}

	// Fault-tolerance headline: recovery metrics at the highest swept failure
	// rate, residency-affinity placement. Deterministic per seed; the
	// fault-free rows of the same grid must match fleet4_* exactly when the
	// configurations coincide, and these keys are additive — existing
	// headline blocks do not move.
	flt, err := experiments.FaultSweep(env, experiments.FaultSweepConfig{})
	if err != nil {
		return nil, err
	}
	for _, cell := range []struct {
		placement, prefix string
	}{
		{"round-robin", "fault12_rr"},
		{"residency-affinity", "fault12_affinity"},
	} {
		row, ok := flt.Row(12, cell.placement)
		if !ok {
			return nil, fmt.Errorf("missing fault row for 12/min×%s", cell.placement)
		}
		h[cell.prefix+"_migrations"] = float64(row.Migrations)
		h[cell.prefix+"_aborted"] = float64(row.Aborted)
		h[cell.prefix+"_downtime_s"] = row.AvgDowntimeSec
		h[cell.prefix+"_postfault_p99_s"] = row.PostFaultP99
		h[cell.prefix+"_p99_latency_s"] = row.Latency.P99
		h[cell.prefix+"_leaked_refs"] = float64(row.LeakedRefs)
	}

	// Crash-recovery headline: durability metrics at the highest swept crash
	// rate. Deterministic per seed; the journal never steers serving
	// decisions, so these keys are additive — existing headline blocks do
	// not move.
	crash, err := experiments.CrashSweep(env, experiments.CrashSweepConfig{})
	if err != nil {
		return nil, err
	}
	for _, cell := range []struct {
		placement, prefix string
	}{
		{"round-robin", "crash12_rr"},
		{"residency-affinity", "crash12_affinity"},
	} {
		row, ok := crash.Row(12, cell.placement)
		if !ok {
			return nil, fmt.Errorf("missing crash row for 12/min×%s", cell.placement)
		}
		h[cell.prefix+"_crashes"] = float64(row.Crashes)
		h[cell.prefix+"_replayed_frames"] = float64(row.ReplayedFrames)
		h[cell.prefix+"_shed"] = float64(row.Shed)
		h[cell.prefix+"_journal_writes"] = float64(row.JournalWrites)
		h[cell.prefix+"_journal_bytes"] = float64(row.JournalBytes)
		h[cell.prefix+"_downtime_s"] = row.AvgDowntimeSec
		h[cell.prefix+"_postfault_p99_s"] = row.PostFaultP99
		h[cell.prefix+"_p99_latency_s"] = row.Latency.P99
		h[cell.prefix+"_leaked_refs"] = float64(row.LeakedRefs)
	}

	// Autoscale headline: the elasticity grid's simulated metrics — the
	// burst-shape fixed-vs-elastic contrast and the diurnal drain activity,
	// residency-affinity placement. Deterministic per seed; with the
	// autoscaler disabled (every other experiment) no existing key moves —
	// these are additive like the fault block.
	auto, err := experiments.AutoscaleSweep(env, experiments.AutoscaleSweepConfig{})
	if err != nil {
		return nil, err
	}
	for _, cell := range []struct {
		shape, mode, prefix string
	}{
		{"burst", "fixed", "auto_burst_fixed4"},
		{"burst", "elastic", "auto_burst_elastic"},
		{"diurnal", "fixed", "auto_diurnal_fixed4"},
		{"diurnal", "elastic", "auto_diurnal_elastic"},
	} {
		row, ok := auto.Row(cell.shape, "residency-affinity", cell.mode)
		if !ok {
			return nil, fmt.Errorf("missing autoscale row for %s×%s", cell.shape, cell.mode)
		}
		h[cell.prefix+"_p99_latency_s"] = row.Latency.P99
		h[cell.prefix+"_miss_rate"] = row.DeadlineMissRate
		h[cell.prefix+"_queue_wait_s"] = row.AvgQueueDelaySec
		h[cell.prefix+"_peak_devices"] = float64(row.PeakDevices)
		if cell.mode == "elastic" {
			h[cell.prefix+"_scale_outs"] = float64(row.ScaleOuts)
			h[cell.prefix+"_scale_ins"] = float64(row.ScaleIns)
			h[cell.prefix+"_drained"] = float64(row.Drained)
			h[cell.prefix+"_migrations"] = float64(row.Migrations)
			h[cell.prefix+"_leaked_refs"] = float64(row.LeakedRefs)
		}
	}

	// Observability headline: the flight-recorder cell's latency attribution
	// — where frame latency goes overall and over the p99 tail, with the
	// swap-stall share of p99 as the headline the prefetch roadmap item is
	// gated on. obs_attached_equals_detached is the zero-perturbation
	// certificate (1 when the attached and detached runs summarize
	// bit-identically). Deterministic per seed; these keys are additive —
	// existing headline blocks do not move.
	ob, err := experiments.ObsSweep(env, experiments.ObsSweepConfig{})
	if err != nil {
		return nil, err
	}
	h["obs_frames"] = float64(ob.Attribution.Frames)
	h["obs_spans"] = float64(ob.Spans)
	h["obs_p99_latency_s"] = ob.Attribution.P99Sec
	h["obs_queue_share"] = ob.Attribution.QueueShare
	h["obs_swap_stall_share"] = ob.Attribution.SwapShare
	h["obs_exec_share"] = ob.Attribution.ExecShare
	h["obs_interference_share"] = ob.Attribution.InterferenceShare
	h["obs_queue_share_p99"] = ob.Attribution.QueueShareOfP99
	h["obs_swap_stall_share_p99"] = ob.Attribution.SwapStallShareOfP99
	h["obs_exec_share_p99"] = ob.Attribution.ExecShareOfP99
	h["obs_interference_share_p99"] = ob.Attribution.InterferenceShareOfP99
	h["obs_attached_equals_detached"] = map[bool]float64{true: 1, false: 0}[ob.DetachedEqual]

	// Predictive-prefetch headline: the TAGE swap predictor's SupraX-style
	// scorecard (coverage / accuracy / timeliness) and the before/after
	// swap-stall share of the p99 tail on the miss-heavy contrast cell. The
	// before key is today's serving path bit-for-bit — the off run takes the
	// identical code path as a build without the predictor — so it moves only
	// when the serving path itself does. These keys are additive; existing
	// headline blocks do not move.
	pf, err := experiments.PrefetchSweep(env, experiments.PrefetchSweepConfig{})
	if err != nil {
		return nil, err
	}
	h["prefetch_coverage"] = pf.Stats.Coverage()
	h["prefetch_accuracy"] = pf.Stats.Accuracy()
	h["prefetch_timeliness"] = pf.Stats.Timeliness()
	h["prefetch_issued"] = float64(pf.Stats.Issued)
	h["prefetch_full_hits"] = float64(pf.Stats.FullHits)
	h["prefetch_late_hits"] = float64(pf.Stats.LateHits)
	h["prefetch_stall_saved_s"] = pf.Stats.StallSavedSec
	h["prefetch_swap_stall_share_p99_before"] = pf.Off.SwapStallShareOfP99
	h["prefetch_swap_stall_share_p99_after"] = pf.On.SwapStallShareOfP99
	return h, nil
}

// loadBaseline reads an older document's results for speedup computation.
func loadBaseline(path string) (map[string]Result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var old Doc
	if err := json.Unmarshal(raw, &old); err != nil {
		return nil, fmt.Errorf("parse baseline %s: %w", path, err)
	}
	return old.Results, nil
}

// report prints a human-readable summary to stderr, in name order so two
// runs of the same document render identically.
func report(doc *Doc) {
	names := make([]string, 0, len(doc.Results))
	for name := range doc.Results {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := doc.Results[name]
		line := fmt.Sprintf("%-26s %12.0f ns/%-10s %8d B/op %6d allocs/op",
			name, r.NsPerOp, r.Unit, r.BytesPerOp, r.AllocsPerOp)
		if s, ok := doc.Speedup[name]; ok {
			line += fmt.Sprintf("   %.2fx vs baseline", s)
		}
		fmt.Fprintln(os.Stderr, line)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
