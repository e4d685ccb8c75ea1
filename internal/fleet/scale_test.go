package fleet

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/detmodel"
	"repro/internal/runtime"
	"repro/internal/scene"
	"repro/internal/zoo"
)

// selectorGrid runs one (workload, faults, config) scenario twice with the
// audit armed. Before every selection the audit checks each cached session
// view and compares the heap top with the pre-heap rescan's pick, so the
// heap-vs-scan equivalence holds event by event; the two runs must then
// agree bit for bit, event counts and journal traffic included, and leak
// neither residency refs nor journal entries. The scenarios are richer than
// the fuzz corpus explores per input: elastic scale-out/in, brownout
// TimeScale churn, crash recovery.
func selectorGrid(t *testing.T, label string, reqs []StreamRequest, faults []Fault, cfg Config, check func(*Result)) {
	t.Helper()
	run := func() *Result {
		fl, err := New(cfg)
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
				t.Fatalf("%s: device %s leaked %d residency refs", label, d.Name, n)
			}
		}
		if len(fl.journalStore) != 0 && cfg.Durability != nil {
			// Every in-flight entry is released at departure/abort/shed; a
			// clean run must end with an empty journal.
			t.Fatalf("%s: %d journal entries leaked", label, len(fl.journalStore))
		}
		return res
	}
	a := run()
	check(a)
	b := run()
	compareRuns(t, a, b, label+"/repeat")
	if a.Events != b.Events {
		t.Fatalf("%s: event counts differ: %d vs %d", label, a.Events, b.Events)
	}
	if a.JournalWrites != b.JournalWrites || a.JournalBytes != b.JournalBytes {
		t.Fatalf("%s: journal traffic differs: %d/%d vs %d/%d bytes", label,
			a.JournalWrites, a.JournalBytes, b.JournalWrites, b.JournalBytes)
	}
}

// TestFleetSelectorEquivalenceElastic: an elastic fleet under queue pressure
// (scale-out, then drain-based scale-in) keeps the heap top equal to the
// rescan's pick at every event and replays identically.
func TestFleetSelectorEquivalenceElastic(t *testing.T) {
	cfg := WorkloadConfig{
		Seed: 11, Streams: 8, RatePerSec: 1.5, PeriodSec: 0.1,
		MinFrames: 10, MaxFrames: 30,
		Scenarios: []*scene.Scenario{scene.Scenario2()},
	}
	reqs, err := GenerateWorkload(cfg,
		func(*scene.Scenario) []scene.Frame { return testFrames(t) },
		fixedFactory(detmodel.YoloV7Tiny, "gpu"))
	if err != nil {
		t.Fatal(err)
	}
	selectorGrid(t, "elastic", reqs, nil, Config{
		Seed:      11,
		Devices:   []DeviceConfig{{Name: "edge-a"}, {Name: "edge-b", Scale: 1.25}},
		Placement: NewLeastOutstanding(),
		Admission: Admission{PerDeviceStreams: 1, QueueLimit: -1},
		Autoscale: autoTestConfig(2),
	}, func(res *Result) {
		if res.ScaleOuts == 0 {
			t.Fatalf("elastic scenario never scaled out — not exercising provisioning")
		}
	})
}

// TestFleetSelectorEquivalenceFaulty: brownout TimeScale churn, an outage
// migration and a crash recovery from the durable journal keep the heap top
// equal to the rescan's pick at every event and replay identically — the
// fault paths all maintain the heap (and the cached event views) correctly.
func TestFleetSelectorEquivalenceFaulty(t *testing.T) {
	cfg := WorkloadConfig{
		Seed: 5, Streams: 6, RatePerSec: 1, PeriodSec: 0.1,
		MinFrames: 20, MaxFrames: 40,
		Scenarios: []*scene.Scenario{scene.Scenario2()},
	}
	reqs, err := GenerateWorkload(cfg,
		func(*scene.Scenario) []scene.Frame { return testFrames(t) },
		fixedFactory(detmodel.YoloV7Tiny, "gpu"))
	if err != nil {
		t.Fatal(err)
	}
	faults := []Fault{
		{Device: "edge-a", Kind: FaultBrownout, At: time.Second, Duration: 2 * time.Second, Factor: 2},
		{Device: "edge-a", Kind: FaultBrownout, At: 1500 * time.Millisecond, Duration: 4 * time.Second, Factor: 1.5},
		{Device: "edge-b", Kind: FaultCrash, At: 2 * time.Second, Duration: time.Second},
		{Device: "edge-c", Kind: FaultOutage, At: 2500 * time.Millisecond, Duration: 2 * time.Second},
	}
	selectorGrid(t, "faulty", reqs, faults, Config{
		Seed:       5,
		Devices:    []DeviceConfig{{Name: "edge-a"}, {Name: "edge-b", Scale: 1.25}, {Name: "edge-c", Scale: 0.8}},
		Placement:  NewResidencyAffinity(),
		Admission:  Admission{PerDeviceStreams: 2, QueueLimit: 4},
		Durability: &DurabilityConfig{EveryFrames: 3},
	}, func(res *Result) {
		if res.Crashes == 0 || res.Migrations == 0 {
			t.Fatalf("faulty scenario crashes=%d migrations=%d — not exercising recovery",
				res.Crashes, res.Migrations)
		}
	})
}

// TestFleetFailReleasesQueuedCheckpoints: when a run fails while a displaced
// stream's checkpoint is parked in the admission queue, the failure path
// must release the parked journal entry and every residency reference — an
// error may lose the run, never leak the store. The scenario forces exactly
// that: a stream is displaced by an outage, waits in the queue behind a full
// device, and its re-admission policy rebuild is made to fail.
func TestFleetFailReleasesQueuedCheckpoints(t *testing.T) {
	builds := 0
	failSecond := func(sys *zoo.System) (runtime.Policy, error) {
		builds++
		if builds >= 3 {
			// Build 1: victim's admission. Build 2: the other stream's
			// admission. Build 3: the victim's post-displacement rebuild.
			return nil, fmt.Errorf("injected policy build failure")
		}
		return fixedFactory(detmodel.YoloV7Tiny, "gpu")(sys)
	}
	frames := testFrames(t)
	reqs := []StreamRequest{
		// Lands on edge-a (round-robin), long enough to straddle the outage.
		{Name: "victim", Scenario: "s2", Arrival: 0, Frames: frames[:60], PeriodSec: 0.05, Policy: failSecond},
		// Fills edge-b's single slot until after the outage displaces the
		// victim, so the victim queues instead of migrating immediately.
		{Name: "blocker", Scenario: "s2", Arrival: 50 * time.Millisecond, Frames: frames[:20], PeriodSec: 0.05, Policy: failSecond},
	}
	faults := []Fault{{Device: "edge-a", Kind: FaultOutage, At: 800 * time.Millisecond, Duration: 100 * time.Second}}
	fl, err := New(Config{
		Seed:       3,
		Devices:    []DeviceConfig{{Name: "edge-a"}, {Name: "edge-b"}},
		Placement:  NewRoundRobin(),
		Admission:  Admission{PerDeviceStreams: 1, QueueLimit: -1},
		Durability: &DurabilityConfig{EveryFrames: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fl.RunWithFaults(reqs, faults)
	if err == nil {
		t.Fatalf("run succeeded (%d served); want the injected policy failure", res.Served)
	}
	for _, d := range fl.Devices() {
		if n := d.DML.TotalRefs(); n != 0 {
			t.Fatalf("device %s leaked %d residency refs after failed run", d.Name, n)
		}
	}
	if n := len(fl.journalStore); n != 0 {
		t.Fatalf("failed run leaked %d journal entries (queued checkpoint not released)", n)
	}
}

// TestFleetStaleCacheAuditTripsOnSkippedRefresh proves the audit hook has
// teeth: serving one step through the session behind the cache's back must
// panic the next selection, so any future transition that forgets its
// refresh cannot pass the equivalence suite silently.
func TestFleetStaleCacheAuditTripsOnSkippedRefresh(t *testing.T) {
	fl, err := New(Config{
		Seed:      3,
		Devices:   []DeviceConfig{{Name: "edge-a"}},
		Placement: NewRoundRobin(),
	})
	if err != nil {
		t.Fatal(err)
	}
	fl.auditCache = true
	reqs := []StreamRequest{{
		Name: "s", Scenario: "s2", Arrival: 0, Frames: testFrames(t)[:10],
		PeriodSec: 0.05, Policy: fixedFactory(detmodel.YoloV7Tiny, "gpu"),
	}}
	// Admit manually through the loop's own helpers, then step the session
	// directly — the one mutation path the fleet never uses without a
	// refresh.
	var queue []*pending
	out, err := fl.arrive(&reqs[0], 0, &queue)
	if err != nil {
		t.Fatal(err)
	}
	as := fl.devices[0].sessions[0]
	if err := as.sess.Step(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = as.sess.Close()
		if recover() == nil {
			t.Fatalf("stale cache not detected for %s", out.Name)
		}
	}()
	fl.nextEvent(reqs, []int{0}, 1, nil, 0, 0)
}

// TestFleetScanOracleTripsOnHeapDisorder proves the audit's rescan oracle is
// live: with every cached view fresh but two heap entries swapped behind the
// heap's back, the next selection must panic with a heap-vs-scan mismatch.
// A no-op oracle would otherwise pass every audited run.
func TestFleetScanOracleTripsOnHeapDisorder(t *testing.T) {
	fl, err := New(Config{
		Seed:      3,
		Devices:   []DeviceConfig{{Name: "edge-a"}},
		Placement: NewRoundRobin(),
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]StreamRequest, 2)
	for i := range reqs {
		reqs[i] = StreamRequest{
			Name: "s" + string(rune('0'+i)), Scenario: "s2", Arrival: 0, Frames: testFrames(t)[:10],
			PeriodSec: 0.05, Policy: fixedFactory(detmodel.YoloV7Tiny, "gpu"),
		}
	}
	var queue []*pending
	for i := range reqs {
		if _, err := fl.arrive(&reqs[i], 0, &queue); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, as := range fl.devices[0].sessions {
			_ = as.sess.Close()
		}
	}()
	if fl.heap.len() != 2 {
		t.Fatalf("heap holds %d sessions, want 2", fl.heap.len())
	}
	// Both sessions are fresh and ready at 0; the heap key puts the first
	// admission on top. Swapping the two slots without a fix-up leaves the
	// later admission on top while the rescan still picks the first.
	fl.heap.swap(0, 1)
	fl.auditCache = true
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "differs from scan pick") {
			t.Fatalf("heap disorder not detected by the scan oracle (panic: %q)", msg)
		}
	}()
	fl.nextEvent(reqs, []int{0, 1}, 2, nil, 0, 0)
}
