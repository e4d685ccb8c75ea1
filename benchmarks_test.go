// The benchmark registry: every benchmark of the reproduction, defined once.
// BenchmarkRepro in bench_test.go (`go test -bench .`) runs each entry as a
// sub-benchmark. The table and figure entries regenerate the corresponding
// result of the paper's evaluation (DESIGN.md §5) and log its headline
// numbers; the ablation entries are DESIGN.md §7's. Wall-clock time measures
// the harness, while the logged values are simulated seconds and Joules
// comparable to the paper's columns.

package repro

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/baseline"
	"repro/internal/confgraph"
	"repro/internal/experiments"
	"repro/internal/img"
	"repro/internal/loader"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/scene"
	"repro/internal/sched"
)

// benchmark is one registry entry: a named body over the shared
// characterization/graph environment.
type benchmark struct {
	Name string
	Run  func(b *testing.B, e *experiments.Env)
}

// benchmarks is the registry, in run order.
var benchmarks = []benchmark{
	// Table I: single-model statistics on CPU, GPU and DLA.
	{"TableI", func(b *testing.B, e *experiments.Env) {
		for i := 0; i < b.N; i++ {
			res, err := experiments.TableI(e, 300, 300)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				gpu, _ := res.Cell("YoloV7", accel.KindGPU)
				b.Logf("Table I YoloV7@GPU: %.3fs %.2fW %.3fJ (paper: 0.13s 15.1W 1.97J)",
					gpu.TimeSec, gpu.PowerW, gpu.EnergyJ)
			}
		}
	}},
	// Table III: the main results table over the full six-scenario
	// evaluation suite.
	{"TableIII", func(b *testing.B, e *experiments.Env) {
		for i := 0; i < b.N; i++ {
			res, err := experiments.TableIII(e, nil)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				shift, _ := res.Summary("SHIFT")
				marlin, _ := res.Summary("Marlin")
				b.Logf("SHIFT: iou=%.3f time=%.3fs energy=%.3fJ nonGPU=%.1f%% swaps=%d pairs=%.1f (paper: 0.598 0.047s 0.262J 68.7%% 42 4.3)",
					shift.AvgIoU, shift.AvgTimeSec, shift.AvgEnergyJ, shift.NonGPUFrac*100, shift.Swaps, shift.PairsUsed)
				b.Logf("Marlin: iou=%.3f time=%.3fs energy=%.3fJ (paper: 0.614 0.132s 1.201J)",
					marlin.AvgIoU, marlin.AvgTimeSec, marlin.AvgEnergyJ)
			}
		}
	}},
	// Table IV: the full characterization table.
	{"TableIV", func(b *testing.B, e *experiments.Env) {
		for i := 0; i < b.N; i++ {
			res, err := experiments.TableIV(e, 300)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				v7, _ := res.Row("YoloV7")
				tiny, _ := res.Row("YoloV7-Tiny")
				b.Logf("Table IV: YoloV7 iou=%.3f, Tiny iou=%.3f (paper: 0.618, 0.533)",
					v7.AvgIoU, tiny.AvgIoU)
			}
		}
	}},
	// Figure 1: the e-a-l comparison of single-family scaling vs the
	// multi-model zoo.
	{"Figure1", func(b *testing.B, e *experiments.Env) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.Figure1(e); err != nil {
				b.Fatal(err)
			}
		}
	}},
	// Figure 2: the single-model efficiency timelines.
	{"Figure2", func(b *testing.B, e *experiments.Env) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.Figure2(e, nil); err != nil {
				b.Fatal(err)
			}
		}
	}},
	// Figure 3: the scenario-1 SHIFT timeline.
	{"Figure3", func(b *testing.B, e *experiments.Env) {
		for i := 0; i < b.N; i++ {
			res, err := experiments.Figure3(e)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("Figure 3: %d swaps, first at frame %d (paper: transitions near 50/500/1100/1650)",
					len(res.SwapFrames), res.SwapFrames[0])
			}
		}
	}},
	// Figure 4: the scenario-2 SHIFT timeline.
	{"Figure4", func(b *testing.B, e *experiments.Env) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.Figure4(e); err != nil {
				b.Fatal(err)
			}
		}
	}},
	// Figure 5: the sensitivity sweep on the quick grid (the full
	// 1,920-configuration grid is cmd/sweep -full).
	{"Figure5", func(b *testing.B, e *experiments.Env) {
		cfg := experiments.QuickSweepConfig()
		cfg.Scenarios = []*scene.Scenario{scene.Scenario2()}
		for i := 0; i < b.N; i++ {
			res, err := experiments.Figure5(e, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				c := res.Correlations["energy knob"]
				b.Logf("Figure 5: energy knob vs energy corr %+.3f (paper: negative)", c[1])
			}
		}
	}},
	// AblationGraphDepth compares the full confidence graph against a
	// distance-threshold-0 graph (per-model lookups only, no cross-model
	// edges).
	{"AblationGraphDepth", func(b *testing.B, e *experiments.Env) {
		opts := confgraph.DefaultOptions()
		opts.DistanceThreshold = 0
		flat, err := confgraph.Build(e.Ch, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			full, _ := runSHIFTWith(b, e, nil, nil)
			noDepth, _ := runSHIFTWith(b, e, nil, flat)
			if i == 0 {
				b.Logf("graph depth ablation: full iou=%.3f energy=%.3fJ | depth-0 iou=%.3f energy=%.3fJ",
					full.AvgIoU, full.AvgEnergyJ, noDepth.AvgIoU, noDepth.AvgEnergyJ)
			}
		}
	}},
	// AblationNoNCC disables the NCC keep-gate so the decision path runs
	// every frame; the gate's scheduling savings and stability show up as
	// the delta in swaps and time.
	{"AblationNoNCC", func(b *testing.B, e *experiments.Env) {
		for i := 0; i < b.N; i++ {
			gated, _ := runSHIFTWith(b, e, nil, nil)
			ungated, _ := runSHIFTWith(b, e, func(o *pipeline.Options) { o.Sched.DisableGate = true }, nil)
			if i == 0 {
				b.Logf("NCC gate ablation: gated swaps=%d time=%.3fs | ungated swaps=%d time=%.3fs",
					gated.Swaps, gated.AvgTimeSec, ungated.Swaps, ungated.AvgTimeSec)
			}
		}
	}},
	// AblationEviction compares the DML's least-recently-requested policy
	// against FIFO and largest-first. The standard pool rarely evicts once
	// scheduling is stable, so the comparison runs under a tightened pool
	// and an accuracy-heavy configuration that pulls large engines in and
	// out.
	{"AblationEviction", func(b *testing.B, e *experiments.Env) {
		policies := []loader.EvictionPolicy{loader.EvictLRR, loader.EvictFIFO, loader.EvictLargest}
		for i := 0; i < b.N; i++ {
			for _, p := range policies {
				policy := p
				opts := pipeline.DefaultOptions()
				opts.Eviction = policy
				opts.Sched.Knobs = sched.Knobs{Accuracy: 3, Energy: 0.2, Latency: 0.2}
				sys := e.System()
				// 1.3 GB: fits the largest single engine (E6E, 1.1 GB) but
				// not two large engines together, so swaps between hard and
				// easy stretches must evict.
				sys.SoC.Pools[accel.SoCPoolName] = accel.NewMemPool(accel.SoCPoolName, 1300*accel.MB)
				shift, err := pipeline.NewSHIFT(sys, e.Ch, e.Graph, opts)
				if err != nil {
					b.Fatal(err)
				}
				sc := scene.Scenario1() // hard stretches force big models in
				res, err := shift.Run(sc.Name, e.Frames(sc))
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					s := metrics.Summarize(res)
					stats := shift.LoaderStats()
					b.Logf("eviction=%s: loads=%d evictions=%d loadEnergy=%.1fJ frameEnergy=%.3fJ",
						policy, stats.Loads, stats.Evictions, stats.LoadEnergyJ, s.AvgEnergyJ)
				}
			}
		}
	}},
	// AblationMomentum varies the prediction-averaging window.
	{"AblationMomentum", func(b *testing.B, e *experiments.Env) {
		for i := 0; i < b.N; i++ {
			for _, m := range []int{1, 30, 120} {
				mom := m
				s, _ := runSHIFTWith(b, e, func(o *pipeline.Options) { o.Sched.Momentum = mom }, nil)
				if i == 0 {
					b.Logf("momentum=%d: iou=%.3f energy=%.3fJ swaps=%d", mom, s.AvgIoU, s.AvgEnergyJ, s.Swaps)
				}
			}
		}
	}},
	// SkipComparison runs the frame-skipping iso-energy comparison (the
	// quantified form of the paper's "no tracking, no skipping" claim).
	{"SkipComparison", func(b *testing.B, e *experiments.Env) {
		for i := 0; i < b.N; i++ {
			res, err := experiments.SkipComparison(e, []*scene.Scenario{scene.Scenario2()}, nil)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				closest := res.ClosestSkipByEnergy()
				b.Logf("iso-energy (~%.2fJ): SHIFT iou=%.3f vs skip=%d iou=%.3f",
					res.SHIFT.AvgEnergyJ, res.SHIFT.AvgIoU, closest.Skip, closest.Summary.AvgIoU)
			}
		}
	}},
	// AblationOracleLoads quantifies the paper's free-switching assumption:
	// the same Oracle-A decision sequence with and without real engine
	// loads.
	{"AblationOracleLoads", func(b *testing.B, e *experiments.Env) {
		sc := scene.Scenario2()
		frames := e.Frames(sc)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			free, err := baseline.NewOracle(e.System(), baseline.OracleAccuracy)
			if err != nil {
				b.Fatal(err)
			}
			freeRes, err := free.Run(sc.Name, frames)
			if err != nil {
				b.Fatal(err)
			}
			paid, err := baseline.NewOracleWithLoads(e.System(), baseline.OracleAccuracy)
			if err != nil {
				b.Fatal(err)
			}
			paidRes, err := paid.Run(sc.Name, frames)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				f := metrics.Summarize(freeRes)
				p := metrics.Summarize(paidRes)
				b.Logf("Oracle A free-switching subsidy: energy %.3f -> %.3fJ, time %.3f -> %.3fs",
					f.AvgEnergyJ, p.AvgEnergyJ, f.AvgTimeSec, p.AvgTimeSec)
			}
		}
	}},
	// GraphQuality runs the confidence-graph data-efficiency curve.
	{"GraphQuality", func(b *testing.B, _ *experiments.Env) {
		for i := 0; i < b.N; i++ {
			res, err := experiments.GraphQuality(1, []int{100, 400}, 200)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				last := res.Points[len(res.Points)-1]
				b.Logf("graph MAE %.3f vs naive %.3f at %d validation frames",
					last.MAE, last.NaiveMAE, last.ValidationFrames)
			}
		}
	}},
	// MultiStream runs the multi-stream serving sweep (1–8 SHIFT streams
	// sharing one platform) and logs the contention headline: tail latency
	// and deadline misses at the top concurrency.
	{"MultiStream", func(b *testing.B, e *experiments.Env) {
		cfg := experiments.DefaultMultiStreamConfig()
		for i := 0; i < b.N; i++ {
			res, err := experiments.MultiStream(e, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				one, _ := res.Row(1)
				eight, _ := res.Row(8)
				b.Logf("multi-stream @%.0f fps: 1 stream p99=%.3fs miss=%.1f%% | 8 streams p99=%.3fs miss=%.1f%% wait=%.3fs swaps/stream=%.1f",
					1/cfg.PeriodSec, one.Latency.P99, one.DeadlineMissRate*100,
					eight.Latency.P99, eight.DeadlineMissRate*100, eight.AvgQueueWaitSec, eight.SwapsPerStream)
			}
		}
	}},
	// FleetSweep runs the multi-device serving grid (device count ×
	// placement policy under the default tiered workload) and logs the fleet
	// headline: residency-affinity vs round-robin tail latency and loader
	// traffic at the largest fleet.
	{"FleetSweep", func(b *testing.B, e *experiments.Env) {
		for i := 0; i < b.N; i++ {
			res, err := experiments.FleetSweep(e, experiments.FleetSweepConfig{})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				rr, _ := res.Row(4, "round-robin")
				aff, _ := res.Row(4, "residency-affinity")
				b.Logf("fleet @4 devices: round-robin p99=%.3fs loads=%d | residency-affinity p99=%.3fs loads=%d miss=%.1f%% util=%.0f%%",
					rr.Latency.P99, rr.Loads, aff.Latency.P99, aff.Loads,
					aff.DeadlineMissRate*100, aff.AvgUtilization*100)
			}
		}
	}},
	// FaultSweep runs the fault-tolerance grid (failure rate × placement
	// with checkpoint/migration) and logs the recovery headline at the
	// highest failure rate.
	{"FaultSweep", func(b *testing.B, e *experiments.Env) {
		for i := 0; i < b.N; i++ {
			res, err := experiments.FaultSweep(e, experiments.FaultSweepConfig{})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				clean, _ := res.Row(0, "residency-affinity")
				worst, _ := res.Row(12, "residency-affinity")
				b.Logf("faults @12/min: %d migrations, %d aborted, downtime=%.2fs, post-fault p99=%.3fs (fault-free p99=%.3fs), leaked refs=%d",
					worst.Migrations, worst.Aborted, worst.AvgDowntimeSec,
					worst.PostFaultP99, clean.Latency.P99, worst.LeakedRefs)
			}
		}
	}},
	// CrashSweep runs the crash-recovery grid (worker-crash rate × placement
	// on a journaled fleet) and logs the durability headline at the highest
	// crash rate: crashes absorbed, frames replayed from checkpoint wire
	// bytes, best-effort streams shed, and journal traffic.
	{"CrashSweep", func(b *testing.B, e *experiments.Env) {
		for i := 0; i < b.N; i++ {
			res, err := experiments.CrashSweep(e, experiments.CrashSweepConfig{})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				clean, _ := res.Row(0, "residency-affinity")
				worst, _ := res.Row(12, "residency-affinity")
				b.Logf("crashes @12/min: %d crashes, %d frames replayed, %d shed, journal %d writes %.1f KiB, post-fault p99=%.3fs (crash-free p99=%.3fs), leaked refs=%d",
					worst.Crashes, worst.ReplayedFrames, worst.Shed,
					worst.JournalWrites, float64(worst.JournalBytes)/1024,
					worst.PostFaultP99, clean.Latency.P99, worst.LeakedRefs)
			}
		}
	}},
	// AutoscaleSweep runs the elasticity grid (workload shape × placement ×
	// fixed/elastic capacity) and logs the autoscale headline: the
	// burst-shape p99 of the fixed 4-device reference against the elastic
	// fleet, and the diurnal drain activity.
	{"AutoscaleSweep", func(b *testing.B, e *experiments.Env) {
		for i := 0; i < b.N; i++ {
			res, err := experiments.AutoscaleSweep(e, experiments.AutoscaleSweepConfig{})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				fixed, _ := res.Row("burst", "residency-affinity", "fixed")
				elastic, _ := res.Row("burst", "residency-affinity", "elastic")
				diurnal, _ := res.Row("diurnal", "residency-affinity", "elastic")
				b.Logf("autoscale burst: fixed4 p99=%.3fs queue=%.2fs | elastic p99=%.3fs peak=%d devices (%d outs) | diurnal: %d ins, %d drained, %d migrations, leaked=%d",
					fixed.Latency.P99, fixed.AvgQueueDelaySec,
					elastic.Latency.P99, elastic.PeakDevices, elastic.ScaleOuts,
					diurnal.ScaleIns, diurnal.Drained, diurnal.Migrations, diurnal.LeakedRefs)
			}
		}
	}},
	// ScaleSweep runs one reduced fleet-scale cell — a 100-device fleet
	// serving 5 000 streams over a compressed diurnal half hour — and logs
	// the events it took and the streams it served; ns/op is the event
	// loop's time. cmd/bench derives the fleet1000_* headline keys from the
	// full 1 000-device / 100 000-stream grid.
	{"ScaleSweep", func(b *testing.B, e *experiments.Env) {
		cfg := experiments.ScaleSweepConfig{
			Cells:   []experiments.ScaleSweepCell{{Devices: 100, Streams: 5000}},
			SpanSec: 1800,
		}
		for i := 0; i < b.N; i++ {
			res, err := experiments.ScaleSweep(e, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				row := res.Rows[0]
				b.Logf("scale @100 devices: %d events, served %d/%d",
					row.Events, row.Served, row.Served+row.Rejected)
			}
		}
	}},
	// PrefetchSweep runs the predictive-prefetch contrast cell — the
	// miss-heavy oscillate workload served twice, TAGE swap predictor off
	// then on — and logs the headline: the SupraX-style scorecard and the
	// before/after swap-stall share of the p99 tail.
	{"PrefetchSweep", func(b *testing.B, e *experiments.Env) {
		for i := 0; i < b.N; i++ {
			res, err := experiments.PrefetchSweep(e, experiments.PrefetchSweepConfig{})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				st := res.Stats
				b.Logf("prefetch: coverage=%.3f accuracy=%.3f timeliness=%.3f (%d issued, %d full + %d late hits, %.2fs saved) | swap-stall share of p99: %.4f -> %.4f",
					st.Coverage(), st.Accuracy(), st.Timeliness(),
					st.Issued, st.FullHits, st.LateHits, st.StallSavedSec,
					res.Off.SwapStallShareOfP99, res.On.SwapStallShareOfP99)
			}
		}
	}},
	// RecorderOverhead/detached and /attached measure the flight recorder's
	// cost on the standard obs fleet cell: the detached run carries only nil
	// checks on the hot paths, so attached-vs-detached wall clock is the
	// whole observability tax. Each half runs one untimed warm-up first, so
	// neither times the frame cache. The first attached iteration logs the
	// headline attribution.
	{"RecorderOverhead/detached", func(b *testing.B, e *experiments.Env) {
		cfg := warmObsCell(b, e)
		for i := 0; i < b.N; i++ {
			if _, err := experiments.ObsCell(e, cfg, nil); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"RecorderOverhead/attached", func(b *testing.B, e *experiments.Env) {
		cfg := warmObsCell(b, e)
		for i := 0; i < b.N; i++ {
			rec := obs.NewRecorder()
			if _, err := experiments.ObsCell(e, cfg, rec); err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				a := rec.Attribution()
				b.Logf("recorder: %d spans over %d frames | p99=%.3fs, swap-stall share of p99=%.1f%% (queue %.1f%%, exec %.1f%%, interference %.1f%%)",
					len(rec.Spans()), a.Frames, a.P99Sec, a.SwapStallShareOfP99*100,
					a.QueueShareOfP99*100, a.ExecShareOfP99*100, a.InterferenceShareOfP99*100)
			}
		}
	}},
	// SHIFTFrame measures the per-frame cost of the full SHIFT loop (load +
	// exec + detect + decide) on the harness itself.
	{"SHIFTFrame", func(b *testing.B, e *experiments.Env) {
		sc := scene.Scenario2()
		frames := e.Frames(sc)
		shift, err := pipeline.NewSHIFT(e.System(), e.Ch, e.Graph, pipeline.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		done := 0
		for done < b.N {
			res, err := shift.Run(sc.Name, frames)
			if err != nil {
				b.Fatal(err)
			}
			done += len(res.Records)
		}
	}},
	// MarlinFrame: per-frame cost of the tracker-heavy Marlin baseline —
	// dominated by NCCSearch template matching.
	{"MarlinFrame", func(b *testing.B, e *experiments.Env) {
		sc1 := scene.Scenario1()
		frames1 := e.Frames(sc1)
		b.ResetTimer()
		b.ReportAllocs()
		done := 0
		for done < b.N {
			m, err := baseline.NewMarlin(e.System(), baseline.DefaultMarlinConfig())
			if err != nil {
				b.Fatal(err)
			}
			res, err := m.Run(sc1.Name, frames1)
			if err != nil {
				b.Fatal(err)
			}
			done += len(res.Records)
		}
	}},
	// Characterization measures the offline stage end to end (validation
	// render + zoo profiling + graph build), fresh seed per iteration to
	// defeat caches.
	{"Characterization", func(b *testing.B, _ *experiments.Env) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.NewEnv(uint64(i+1), 300); err != nil {
				b.Fatal(err)
			}
		}
	}},
	// RenderScenario1: scenario synthesis per frame.
	{"RenderScenario1", func(b *testing.B, _ *experiments.Env) {
		sc1 := scene.Scenario1()
		b.ReportAllocs()
		done := 0
		for done < b.N {
			done += len(sc1.Render(uint64(done + 1)))
		}
	}},
	// NCC72 and NCCSearch41x41t21: NCC / NCCSearch micro-benchmarks on
	// tracker-scale inputs.
	{"NCC72", func(b *testing.B, _ *experiments.Env) {
		imgA, imgB, _ := nccInputs()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			img.NCC(imgA, imgB)
		}
	}},
	{"NCCSearch41x41t21", func(b *testing.B, _ *experiments.Env) {
		_, _, search := nccInputs()
		tpl := search.Crop(10, 10, 21, 21)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			img.NCCSearch(search, tpl)
		}
	}},
}

// runSHIFTWith runs SHIFT over scenario 2 with custom options and returns
// the summary plus loader stats.
func runSHIFTWith(b *testing.B, e *experiments.Env, mutate func(*pipeline.Options), graph *confgraph.Graph) (metrics.Summary, loader.Stats) {
	b.Helper()
	opts := pipeline.DefaultOptions()
	if mutate != nil {
		mutate(&opts)
	}
	if graph == nil {
		graph = e.Graph
	}
	shift, err := pipeline.NewSHIFT(e.System(), e.Ch, graph, opts)
	if err != nil {
		b.Fatal(err)
	}
	sc := scene.Scenario2()
	res, err := shift.Run(sc.Name, e.Frames(sc))
	if err != nil {
		b.Fatal(err)
	}
	return metrics.Summarize(res), shift.LoaderStats()
}

// warmObsCell runs the default obs cell once, untimed, so the frame cache is
// warm before the timer starts, and returns the cell's config.
func warmObsCell(b *testing.B, e *experiments.Env) experiments.ObsSweepConfig {
	b.Helper()
	cfg := experiments.DefaultObsSweepConfig()
	if _, err := experiments.ObsCell(e, cfg, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	return cfg
}

// nccInputs draws the tracker-scale NCC inputs from one seeded stream, in a
// fixed order: two 72×72 images and a 41×41 search window.
func nccInputs() (a, b, search *img.Image) {
	r := rng.New(1)
	return randomImage(r, 72, 72), randomImage(r, 72, 72), randomImage(r, 41, 41)
}

func randomImage(r *rng.Stream, w, h int) *img.Image {
	m := img.New(w, h)
	for i := range m.Pix {
		m.Pix[i] = uint8(r.Intn(256))
	}
	return m
}
