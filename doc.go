// Package repro is a from-scratch Go reproduction of "Context-aware
// Multi-Model Object Detection for Diversely Heterogeneous Compute Systems"
// (Davis & Belviranli, DATE 2024) — the SHIFT system.
//
// SHIFT continuously selects which object-detection model to run, and on
// which accelerator, based on contextual information derived from the input
// video stream. The reproduction implements the paper's three components
// (confidence graph, runtime scheduler, dynamic model loader) plus every
// substrate the evaluation depends on: a procedural video synthesizer, a
// behaviourally simulated eight-model detection zoo, and a virtual-time
// Xavier NX + OAK-D platform with power and memory accounting.
//
// Layout:
//
//   - internal/confgraph, internal/sched, internal/loader, internal/pipeline:
//     the paper's contribution (offline graph, Algorithm 1, DML, SHIFT).
//   - internal/runtime: the shared serving engine — one step loop behind a
//     Policy interface that SHIFT and every baseline run on, plus the
//     deterministic multi-stream event loop (runtime.Serve) with FIFO
//     processor queueing and reference-counted engine residency, factored
//     into steppable per-stream Sessions with checkpoint/restore
//     (Session.Snapshot, RestoreSession, PortablePolicy) for migration.
//   - internal/fleet: the multi-device serving layer — K heterogeneous
//     devices behind a dispatcher with pluggable placement policies
//     (round-robin, least-outstanding, residency-affinity), admission
//     control with a bounded wait queue, seeded workload generators
//     (constant-rate and shaped: burst / diurnal via thinning), a seeded
//     fault injector (outages, deaths, brownouts) whose failures
//     checkpoint and migrate in-flight streams, and an SLO-driven
//     autoscaler (fleet.AutoscaleConfig) that provisions warm-pool
//     devices on tail-latency or queue breaches and decommissions idle
//     ones via drain-based scale-in; one global deterministic event loop
//     interleaves arrivals, frame steps, departures, fault edges and
//     scale ticks across devices, selecting each next event from an
//     indexed min-heap keyed (time, kind, device, seq); the pre-heap
//     rescan survives only as a test oracle checked before every
//     selection (parallel region sharding and the rescan config knob
//     were retired after measuring 1.04× at R=2 on 2 cores; their
//     historical numbers stay in EXPERIMENTS.md). With
//     fleet.DurabilityConfig set, every session is journaled through the
//     checkpoint wire format and a fourth fault kind — crash — kills a
//     device's worker process and recovers its streams from journal bytes
//     (best-effort streams shed first when survivors lack slack).
//   - internal/obs: the fleet flight recorder — a pure-stdlib virtual-clock
//     tracer recording typed spans for every lifecycle event (arrival,
//     queue wait, engine load vs. residency hit, per-processor exec,
//     per-frame rollup, migration, drain, brownout, crash-recover), a
//     counters-and-histograms registry folded from the span stream, exact
//     per-frame latency attribution (queue + swap + exec + interference
//     sum bit-exactly to end-to-end), Chrome trace-event JSON export and
//     text timelines; strictly observational — attaching it never
//     perturbs a run.
//   - internal/predict: TAGE-style swap prediction — a bimodal base table
//     plus tagged geometric-history tables over the stream's (model, kind)
//     swap sequence, trained online from the step loop's swap events.
//     Confident predictions become speculative engine loads on the SoC's
//     DMA copy channel, overlapping the predicted next load with
//     current-frame compute (internal/runtime), and pre-warm the target
//     device on admission and migration (internal/fleet). Prefetch hides
//     stalls but never steers: the predictor-off path is bit-identical to
//     a build without it, and predictor-on decision sequences equal
//     predictor-off ones — pinned by the churn suites and
//     FuzzPredictorDeterminism.
//   - internal/checkpoint: the versioned, self-describing checkpoint wire
//     format (magic + version + CRC-guarded sections; frames by
//     reference) with typed decode errors and a committed fuzz corpus.
//   - internal/distrib: the coordinator/worker process split — a
//     line-delimited JSON protocol over stdio pipes with per-request
//     deadlines, bounded retries and idempotent re-dispatch, journaling
//     each stream's checkpoint so a SIGKILLed worker's streams resume on
//     survivors with bit-identical decisions.
//   - internal/scene, internal/detmodel, internal/accel, internal/zoo:
//     the simulated substrates (videos, models, hardware, binding).
//   - internal/baseline: Marlin, single-model, frame-skip and Oracle
//     comparison methods, all thin policies over the engine.
//   - internal/experiments: one runner per paper table/figure, plus the
//     multi-stream contention sweep (experiments.MultiStream), the
//     multi-device fleet grid (experiments.FleetSweep), the
//     fault-tolerance grid (experiments.FaultSweep), the elasticity
//     grid (experiments.AutoscaleSweep: fixed vs autoscaled fleets under
//     burst and diurnal workload shapes), the crash-recovery grid
//     (experiments.CrashSweep: kill-and-recover on a journaled fleet) and
//     the fleet-scale grid (experiments.ScaleSweep: day-long diurnal
//     traces on fleets up to 1 000 devices / 100 000 streams, reporting
//     each fleet's simulated serving profile) and the
//     predictive-prefetch cell (experiments.PrefetchSweep: one miss-heavy
//     recorder cell served predictor-off then predictor-on, putting the
//     SupraX-style coverage/accuracy/timeliness scorecard next to the
//     swap-stall share of the p99 tail before and after).
//   - internal/analysis: detlint, the static determinism-lint suite — five
//     analyzers (wallclock, globalrand, maporder, goroutine, forkshare)
//     built on the standard library's go/ast and go/types that enforce the
//     bit-identity invariants at build time, with a //detlint:allow
//     site-by-site escape hatch whose inventory is pinned by a golden test
//     (DESIGN.md §15).
//   - cmd/: shiftsim, characterize, sweep, figures, bench, render, report,
//     fleetsim, detlint (standalone linter, go vet -vettool, and
//     -inventory suppression listing).
//   - examples/: quickstart, dronechase, energybudget, customzoo, livefeed,
//     edgefarm.
//
// The benchmark registry (benchmarks_test.go) regenerates every table and
// figure and times the hot paths; `go test -run '^$' -bench .` runs it as
// BenchmarkRepro/<Name>. cmd/bench derives the simulated headline into
// BENCH_<date>.json and, with -check, re-derives a committed one bit for
// bit; shiftbench times the end-to-end workloads. See DESIGN.md for the
// experiment index and EXPERIMENTS.md for measured results against the
// paper's numbers.
package repro
