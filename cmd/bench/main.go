// Command bench derives the reproduction's simulated headline — Table III,
// multi-stream, the fleet, fault, crash, autoscale, obs and prefetch sweeps,
// and the 1 000-device flagship fleet — and either writes it as
// BENCH_<date>.json or checks a committed document against it bit for bit.
// Every key is simulated (virtual seconds, Joules, counts) and deterministic
// per seed, so a change that leaves the simulation alone must leave every
// key unchanged. Nothing here is timed: shiftbench is the one timing harness.
//
// Usage:
//
//	go run ./cmd/bench [-out BENCH_2026-10-17.json] [-date 2026-10-17]
//	go run ./cmd/bench -check BENCH_2026-10-17.json
//
// -check re-derives every key, compares each with the document's by
// math.Float64bits, names every missing, extra or drifting key, and exits 1
// if there is any. With -date, the document's date stamp (and the default
// -out filename derived from it) is pinned instead of read from the wall
// clock, so the artifact name is reproducible.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"repro/internal/experiments"
)

// Doc is the serialized headline document.
type Doc struct {
	Schema   string             `json:"schema"`
	Date     string             `json:"date"`
	Headline map[string]float64 `json:"headline"`
}

func main() {
	out := flag.String("out", "", "output JSON path (default BENCH_<date>.json)")
	date := flag.String("date", "", "date stamp (YYYY-MM-DD) for the default -out filename and the Date field; empty means today, which drifts — pass a fixed date for reproducible artifacts")
	check := flag.String("check", "", "committed BENCH_*.json to re-derive and compare bit for bit instead of writing a document; exits 1 on any missing, extra or drifting key")
	flag.Parse()

	if *check != "" {
		if *out != "" || *date != "" {
			fatal(fmt.Errorf("-check is exclusive with -out and -date"))
		}
		want, err := readHeadline(*check)
		if err != nil {
			fatal(err)
		}
		got, err := derive()
		if err != nil {
			fatal(err)
		}
		if diffs := diffHeadline(want, got); len(diffs) > 0 {
			for _, d := range diffs {
				fmt.Fprintln(os.Stderr, d)
			}
			fatal(fmt.Errorf("%s: %d of %d headline keys differ", *check, len(diffs), len(want)))
		}
		fmt.Fprintf(os.Stderr, "%s: all %d headline keys match\n", *check, len(want))
		return
	}

	stamp := *date
	if stamp == "" {
		stamp = time.Now().Format("2006-01-02") //detlint:allow wallclock default artifact date stamp; -date pins it for reproducible CI runs
	} else if _, err := time.Parse("2006-01-02", stamp); err != nil {
		fatal(fmt.Errorf("-date %q: want YYYY-MM-DD", stamp))
	}
	if *out == "" {
		*out = fmt.Sprintf("BENCH_%s.json", stamp)
	}
	h, err := derive()
	if err != nil {
		fatal(err)
	}
	buf, err := json.MarshalIndent(Doc{Schema: "repro-bench/v2", Date: stamp, Headline: h}, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d headline keys)\n", *out, len(h))
}

// readHeadline reads a BENCH document's headline block.
func readHeadline(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Doc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return doc.Headline, nil
}

// diffHeadline compares a pinned headline with a derived one by
// math.Float64bits, so a one-ulp drift and −0 against +0 both count. It
// returns one line per missing (want only), extra (got only) or drifting
// key, in key order; equal maps give none.
func diffHeadline(want, got map[string]float64) []string {
	keys := make([]string, 0, len(want)+len(got))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var diffs []string
	for _, k := range keys {
		w, inWant := want[k]
		g, inGot := got[k]
		switch {
		case !inGot:
			diffs = append(diffs, fmt.Sprintf("%s: missing (want %v)", k, w))
		case !inWant:
			diffs = append(diffs, fmt.Sprintf("%s: extra (got %v)", k, g))
		case math.Float64bits(g) != math.Float64bits(w):
			diffs = append(diffs, fmt.Sprintf("%s: got %v, want %v", k, g, w))
		}
	}
	return diffs
}

// derive returns every simulated headline key: headline's blocks plus the
// fleet1000_* flagship block, the serving profile of the 1 000-device /
// 100 000-stream diurnal day (the default ScaleSweep grid).
func derive() (map[string]float64, error) {
	env, err := experiments.NewEnv(1, experiments.DefaultValidationFrames)
	if err != nil {
		return nil, err
	}
	h, err := headline(env)
	if err != nil {
		return nil, err
	}
	scale, err := experiments.ScaleSweep(env, experiments.ScaleSweepConfig{})
	if err != nil {
		return nil, err
	}
	flagship, ok := scale.Row(1000)
	if !ok {
		return nil, fmt.Errorf("missing 1000-device scale row")
	}
	h["fleet1000_served"] = float64(flagship.Served)
	h["fleet1000_frames"] = float64(flagship.Frames)
	h["fleet1000_events"] = float64(flagship.Events)
	h["fleet1000_horizon_s"] = flagship.HorizonSec
	h["fleet1000_p50_latency_s"] = flagship.LatencyP50Sec
	h["fleet1000_p99_latency_s"] = flagship.LatencyP99Sec
	h["fleet1000_miss_rate"] = flagship.DeadlineMissRate
	return h, nil
}

// headline derives every simulated headline key except the fleet1000_*
// flagship block, whose one long event loop dominates derive's cost:
// Table III, multi-stream, and the fleet sweeps at their default grids.
// The keys are deterministic per seed; a perf-only change must leave them
// untouched.
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
