package fleet

import (
	"slices"
	"testing"
	"time"

	"repro/internal/detmodel"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/scene"
)

// FuzzFleetDeterminism is the fleet's simulation-testing entry point, in the
// FoundationDB style: every input derives a seeded workload, fleet shape and
// fault schedule, and the property checked is bit-identity — running the same
// simulation twice must match exactly, and shuffling the device listing order
// must change nothing, faults and migrations included. `go test` replays the
// committed corpus under testdata/fuzz; `-fuzz` explores new schedules.
func FuzzFleetDeterminism(f *testing.F) {
	f.Add(uint64(1), uint64(1), uint64(2), uint64(4), true)
	f.Add(uint64(7), uint64(3), uint64(3), uint64(6), true)
	f.Add(uint64(42), uint64(0), uint64(1), uint64(2), false)
	f.Fuzz(func(t *testing.T, wseed, fseed, ndev, nstreams uint64, faulty bool) {
		devCount := int(ndev%3) + 1
		streams := int(nstreams%6) + 1
		scales := []float64{1, 1.25, 0.8}
		devices := make([]DeviceConfig, devCount)
		for i := range devices {
			devices[i] = DeviceConfig{
				Name:  "edge-" + string(rune('a'+i)),
				Scale: scales[i%len(scales)],
			}
		}
		cfg := WorkloadConfig{
			Seed:       wseed,
			Streams:    streams,
			RatePerSec: 0.5,
			PeriodSec:  0.1,
			MinFrames:  10,
			MaxFrames:  40,
			Scenarios:  []*scene.Scenario{scene.Scenario2()},
		}
		reqs, err := GenerateWorkload(cfg,
			func(*scene.Scenario) []scene.Frame { return testFrames(t) },
			fixedFactory(detmodel.YoloV7Tiny, "gpu"))
		if err != nil {
			t.Fatal(err)
		}
		var faults []Fault
		if faulty {
			names := make([]string, len(devices))
			for i, d := range devices {
				names[i] = d.Name
			}
			fcfg := DefaultFaultConfig()
			fcfg.Seed = fseed
			fcfg.RatePerSec = 0.1
			fcfg.Horizon = 45 * time.Second
			fcfg.MeanOutageSec = 4
			faults, err = GenerateFaults(fcfg, names)
			if err != nil {
				t.Fatal(err)
			}
		}
		// Every run arms the audit: before each selection the heap top must
		// equal the pre-heap rescan's pick, and every cached view be fresh.
		run := func(devs []DeviceConfig, rec *obs.Recorder, pf *predict.Config) *Result {
			fl, err := New(Config{
				Seed:      wseed,
				Devices:   devs,
				Placement: NewResidencyAffinity(),
				Admission: Admission{PerDeviceStreams: 2, QueueLimit: 3},
				Recorder:  rec,
				Prefetch:  pf,
			})
			if err != nil {
				t.Fatal(err)
			}
			fl.auditCache = true
			res, err := fl.RunWithFaults(reqs, faults)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range fl.Devices() {
				if n := d.DML.TotalRefs(); n != 0 {
					t.Fatalf("device %s leaked %d residency refs", d.Name, n)
				}
			}
			return res
		}
		a := run(devices, nil, nil)
		b := run(devices, nil, nil)
		compareRuns(t, a, b, "repeat")
		if a.Events != b.Events {
			t.Fatalf("event counts diverge across repeats: %d vs %d", a.Events, b.Events)
		}
		shuffled := make([]DeviceConfig, devCount)
		for i := range devices {
			shuffled[(i+1)%devCount] = devices[i]
		}
		c := run(shuffled, nil, nil)
		compareRuns(t, a, c, "shuffled-devices")
		// Flight recorder: attaching one is strictly observational — results
		// stay bit-identical, and every frame span's latency decomposition
		// sums exactly (integer Duration domain, no rounding slack).
		recA := obs.NewRecorder()
		ra := run(devices, recA, nil)
		compareRuns(t, a, ra, "recorder-attached")
		for i, sp := range recA.Spans() {
			if sp.Kind != obs.SpanFrame {
				continue
			}
			if sp.Queue+sp.Wait+sp.Swap+sp.Exec != sp.Dur() {
				t.Fatalf("span %d (%s frame %d): queue %v + wait %v + swap %v + exec %v != %v",
					i, sp.Stream, sp.Frame, sp.Queue, sp.Wait, sp.Swap, sp.Exec, sp.Dur())
			}
			if sp.Queue < 0 || sp.Wait < 0 || sp.Swap < 0 || sp.Exec < 0 {
				t.Fatalf("span %d (%s frame %d): negative component: %+v", i, sp.Stream, sp.Frame, sp)
			}
		}
		// Predictor on: the swap predictor and its speculative prefetches run
		// under every fuzzed shape and fault schedule, and must stay exactly
		// as deterministic as the committed path — a repeat reproduces
		// results, spans and scorecard bit-for-bit, prefetch-hit frames carry
		// zero swap stall, and every decomposition still sums exactly
		// (checkPrefetchSpans, shared with the fleet prefetch test).
		pf := predict.DefaultConfig()
		recP := obs.NewRecorder()
		p1 := run(devices, recP, &pf)
		recP2 := obs.NewRecorder()
		p2 := run(devices, recP2, &pf)
		compareRuns(t, p1, p2, "prefetch-repeat")
		if p1.Prefetch != p2.Prefetch {
			t.Fatalf("predictor scorecard diverges across repeats: %+v vs %+v", p1.Prefetch, p2.Prefetch)
		}
		sp1, sp2 := recP.Spans(), recP2.Spans()
		if len(sp1) != len(sp2) {
			t.Fatalf("prefetch-on span counts diverge across repeats: %d vs %d", len(sp1), len(sp2))
		}
		for i := range sp1 {
			if sp1[i] != sp2[i] {
				t.Fatalf("prefetch-on span %d diverges across repeats:\n%+v\n%+v", i, sp1[i], sp2[i])
			}
		}
		if hits := checkPrefetchSpans(t, sp1); hits != p1.Prefetch.FullHits {
			t.Fatalf("recorder saw %d prefetch-hit spans, scorecard says %d full hits", hits, p1.Prefetch.FullHits)
		}
		// Prefetch never steers a fault-free fleet: admission, placement and
		// every per-frame decision and detection match the predictor-off run;
		// only latency and energy may move. Under faults it does not hold —
		// prefetch moves virtual time, so a fault catches a stream at a
		// different frame and can move its placement (DESIGN.md §14).
		if len(faults) == 0 {
			compareDecisions(t, a, p1, "prefetch-vs-off")
		}
	})
}

// compareDecisions checks that two runs made the same decisions: each
// outcome's admission fate and serving path, and each record's pair,
// detection and swap/reschedule flags. Timings, latency and energy are not
// compared.
func compareDecisions(t *testing.T, a, b *Result, label string) {
	t.Helper()
	if len(a.Outcomes) != len(b.Outcomes) {
		t.Fatalf("%s: %d vs %d outcomes", label, len(a.Outcomes), len(b.Outcomes))
	}
	for i := range a.Outcomes {
		oa, ob := a.Outcomes[i], b.Outcomes[i]
		if oa.Rejected != ob.Rejected || oa.Aborted != ob.Aborted || oa.Shed != ob.Shed ||
			!slices.Equal(oa.Devices, ob.Devices) {
			t.Fatalf("%s: outcome %d (%s) fate differs: rejected %v/%v aborted %v/%v shed %v/%v path %v/%v",
				label, i, oa.Name, oa.Rejected, ob.Rejected, oa.Aborted, ob.Aborted, oa.Shed, ob.Shed, oa.Devices, ob.Devices)
		}
		if oa.Stream == nil || ob.Stream == nil {
			if (oa.Stream == nil) != (ob.Stream == nil) {
				t.Fatalf("%s: outcome %d (%s) has records in only one run", label, i, oa.Name)
			}
			continue
		}
		ra, rb := oa.Stream.Result.Records, ob.Stream.Result.Records
		if len(ra) != len(rb) {
			t.Fatalf("%s: stream %s record counts differ: %d vs %d", label, oa.Name, len(ra), len(rb))
		}
		for j := range ra {
			x, y := ra[j], rb[j]
			if x.Pair != y.Pair || x.Found != y.Found || x.Conf != y.Conf || x.IoU != y.IoU ||
				x.Box != y.Box || x.Swapped != y.Swapped || x.Rescheduled != y.Rescheduled {
				t.Fatalf("%s: stream %s record %d decision differs:\n%+v\n%+v", label, oa.Name, j, x, y)
			}
		}
	}
}
