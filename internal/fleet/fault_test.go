package fleet

import (
	"testing"
	"time"

	"repro/internal/detmodel"
	"repro/internal/runtime"
)

// newTestFleet builds a small fleet with per-test admission settings.
func newTestFleet(t *testing.T, adm Admission, devs ...DeviceConfig) *Fleet {
	t.Helper()
	f, err := New(Config{Seed: 1, Devices: devs, Admission: adm})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// checkNoLeaks asserts every device's loader holds zero residency references.
func checkNoLeaks(t *testing.T, f *Fleet) {
	t.Helper()
	for _, d := range f.Devices() {
		if n := d.DML.TotalRefs(); n != 0 {
			t.Fatalf("device %s leaked %d residency refs", d.Name, n)
		}
	}
}

// TestFaultOutageMigratesStream: a stream serving on a device that suffers an
// outage is checkpointed, migrated to the healthy device, and completes with
// every frame served exactly once — records contiguous across the move, no
// refs leaked on either device.
func TestFaultOutageMigratesStream(t *testing.T) {
	f := newTestFleet(t, Admission{}, DeviceConfig{Name: "d0"}, DeviceConfig{Name: "d1"})
	frames := testFrames(t)[:60]
	res, err := f.RunWithFaults(
		[]StreamRequest{{
			Name: "s", Scenario: "scenario2", Frames: frames, PeriodSec: 0.1,
			Policy: fixedFactory(detmodel.YoloV7, "gpu"),
		}},
		[]Fault{{Device: "d0", Kind: FaultOutage, At: 2 * time.Second, Duration: 30 * time.Second}},
	)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outcomes[0]
	if out.Rejected || out.Aborted {
		t.Fatalf("stream outcome %+v", out)
	}
	if out.Migrations != 1 || res.Migrations != 1 {
		t.Fatalf("migrations = %d (result %d), want 1", out.Migrations, res.Migrations)
	}
	if want := []string{"d0", "d1"}; len(out.Devices) != 2 || out.Devices[0] != want[0] || out.Devices[1] != want[1] {
		t.Fatalf("serving path %v, want %v", out.Devices, want)
	}
	if out.Device != "d1" {
		t.Fatalf("final device %s, want d1", out.Device)
	}
	if out.DowntimeSec < 0 {
		t.Fatalf("negative downtime %v", out.DowntimeSec)
	}
	if got := len(out.Stream.Result.Records); got != len(frames) {
		t.Fatalf("served %d frames, want %d", got, len(frames))
	}
	for i, rec := range out.Stream.Result.Records {
		if rec.Index != frames[i].Index {
			t.Fatalf("record %d has frame index %d, want %d (duplicated or dropped frame)",
				i, rec.Index, frames[i].Index)
		}
	}
	// Timings stay monotonic across the move and frames after the fault
	// cannot complete before it.
	for i := 1; i < len(out.Stream.Timings); i++ {
		if out.Stream.Timings[i].Done < out.Stream.Timings[i-1].Done {
			t.Fatalf("timing %d regressed across migration", i)
		}
	}
	checkNoLeaks(t, f)
}

// TestFaultDeathPermanentlyExcludesDevice: after a death, the device serves
// nothing more — later arrivals all land on the survivor — and the dead
// device's stats say so.
func TestFaultDeathPermanentlyExcludesDevice(t *testing.T) {
	f := newTestFleet(t, Admission{}, DeviceConfig{Name: "d0"}, DeviceConfig{Name: "d1"})
	frames := testFrames(t)[:20]
	mk := func(name string, at time.Duration) StreamRequest {
		return StreamRequest{
			Name: name, Scenario: "scenario2", Arrival: at, Frames: frames,
			PeriodSec: 0.1, Policy: fixedFactory(detmodel.YoloV7Tiny, "gpu"),
		}
	}
	res, err := f.RunWithFaults(
		[]StreamRequest{mk("a", 0), mk("b", 10*time.Second), mk("c", 20*time.Second)},
		[]Fault{{Device: "d0", Kind: FaultDeath, At: time.Second}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 3 || res.Aborted != 0 {
		t.Fatalf("served %d aborted %d, want 3/0", res.Served, res.Aborted)
	}
	for _, out := range res.Outcomes[1:] {
		if out.Device != "d1" {
			t.Fatalf("stream %s on %s after d0 died", out.Name, out.Device)
		}
	}
	var d0 DeviceStats
	for _, ds := range res.Devices {
		if ds.Name == "d0" {
			d0 = ds
		}
	}
	if !d0.Dead || d0.Displaced != 1 || d0.DownSec <= 0 {
		t.Fatalf("dead-device stats %+v", d0)
	}
	checkNoLeaks(t, f)
}

// TestFaultBrownoutSlowsWithoutMigration: a brownout stretches service time
// but keeps the stream on its device; after recovery the device returns to
// its base scale.
func TestFaultBrownoutSlowsWithoutMigration(t *testing.T) {
	run := func(faults []Fault) (*Result, *Fleet) {
		f := newTestFleet(t, Admission{}, DeviceConfig{Name: "solo", Seed: 1})
		res, err := f.RunWithFaults([]StreamRequest{{
			Name: "s", Scenario: "scenario2", Frames: testFrames(t)[:80], PeriodSec: 0, // offline pacing
			Policy: fixedFactory(detmodel.YoloV7, "gpu"),
		}}, faults)
		if err != nil {
			t.Fatal(err)
		}
		return res, f
	}
	base, _ := run(nil)
	slow, f := run([]Fault{{
		Device: "solo", Kind: FaultBrownout, At: 0,
		Duration: 1000 * time.Second, Factor: 3,
	}})
	out := slow.Outcomes[0]
	if out.Migrations != 0 {
		t.Fatalf("brownout migrated the stream (%d)", out.Migrations)
	}
	ratio := float64(slow.Horizon) / float64(base.Horizon)
	if ratio < 2.8 || ratio > 3.2 {
		t.Fatalf("brownout horizon ratio %.3f, want ~3", ratio)
	}
	if ts := f.Devices()[0].Sys.SoC.TimeScale; ts != 1 {
		t.Fatalf("time scale %v after recovery, want 1", ts)
	}
}

// TestFaultOverlappingBrownoutsCompound: two concurrent brownouts multiply
// the device's time scale while both are active, the earlier recovery only
// removes its own factor, and the scale returns to exactly the base once the
// last one ends.
func TestFaultOverlappingBrownoutsCompound(t *testing.T) {
	run := func(faults []Fault) (*Result, *Fleet) {
		f := newTestFleet(t, Admission{}, DeviceConfig{Name: "solo", Seed: 1})
		res, err := f.RunWithFaults([]StreamRequest{{
			Name: "s", Scenario: "scenario2", Frames: testFrames(t)[:80], PeriodSec: 0, // offline pacing
			Policy: fixedFactory(detmodel.YoloV7, "gpu"),
		}}, faults)
		if err != nil {
			t.Fatal(err)
		}
		return res, f
	}
	base, _ := run(nil)
	long := 1000 * time.Second
	nested, f := run([]Fault{
		{Device: "solo", Kind: FaultBrownout, At: 0, Duration: long, Factor: 2},
		{Device: "solo", Kind: FaultBrownout, At: 0, Duration: long / 2, Factor: 2},
	})
	// The whole (short) run sits inside both windows: compounded 4×, not 2×.
	ratio := float64(nested.Horizon) / float64(base.Horizon)
	if ratio < 3.8 || ratio > 4.2 {
		t.Fatalf("nested brownout horizon ratio %.3f, want ~4 (overlap must compound)", ratio)
	}
	if ts := f.Devices()[0].Sys.SoC.TimeScale; ts != 1 {
		t.Fatalf("time scale %v after both recoveries, want exactly 1", ts)
	}
}

// TestFaultFrameAttributionAcrossMigration: per-device frame totals credit
// each device with exactly the frames it served — pre-fault frames stay with
// the failed device, not the migration target.
func TestFaultFrameAttributionAcrossMigration(t *testing.T) {
	f := newTestFleet(t, Admission{}, DeviceConfig{Name: "d0"}, DeviceConfig{Name: "d1"})
	frames := testFrames(t)[:60]
	res, err := f.RunWithFaults(
		[]StreamRequest{{
			Name: "s", Scenario: "scenario2", Frames: frames, PeriodSec: 0.1,
			Policy: fixedFactory(detmodel.YoloV7, "gpu"),
		}},
		[]Fault{{Device: "d0", Kind: FaultDeath, At: 2 * time.Second}},
	)
	if err != nil {
		t.Fatal(err)
	}
	var d0, d1 DeviceStats
	for _, ds := range res.Devices {
		switch ds.Name {
		case "d0":
			d0 = ds
		case "d1":
			d1 = ds
		}
	}
	if d0.Frames == 0 {
		t.Fatal("failed device credited with no frames despite serving pre-fault")
	}
	if d1.Frames == 0 {
		t.Fatal("migration target credited with no frames")
	}
	if got := d0.Frames + d1.Frames; got != len(frames) {
		t.Fatalf("frame attribution: %d + %d != %d", d0.Frames, d1.Frames, len(frames))
	}
	if d0.Streams != 0 || d1.Streams != 1 {
		t.Fatalf("stream completion counts: d0=%d d1=%d, want 0/1", d0.Streams, d1.Streams)
	}
}

// TestFaultDisplacedStreamsDoNotConsumeQueueLimit: displaced streams bypass
// the admission waiting room, so they must not fill it against genuine new
// arrivals either.
func TestFaultDisplacedStreamsDoNotConsumeQueueLimit(t *testing.T) {
	f := newTestFleet(t, Admission{PerDeviceStreams: 1, QueueLimit: 1},
		DeviceConfig{Name: "d0"}, DeviceConfig{Name: "d1"})
	frames := testFrames(t)[:50]
	mk := func(name string, at time.Duration) StreamRequest {
		return StreamRequest{
			Name: name, Scenario: "scenario2", Arrival: at, Frames: frames,
			PeriodSec: 0.1, Policy: fixedFactory(detmodel.YoloV7Tiny, "gpu"),
		}
	}
	// a and b fill both devices; d0's outage pushes a displaced stream into
	// the queue. c arrives while it waits: the 1-slot waiting room must still
	// be free for c, since the displaced entry bypasses the limit.
	res, err := f.RunWithFaults(
		[]StreamRequest{mk("a", 0), mk("b", 0), mk("c", 2*time.Second)},
		[]Fault{{Device: "d0", Kind: FaultOutage, At: time.Second, Duration: 10 * time.Second}},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range res.Outcomes {
		if out.Name == "c" && out.Rejected {
			t.Fatal("new arrival rejected because a displaced stream consumed the queue limit")
		}
	}
	if res.Served != 3 {
		t.Fatalf("served %d, want 3", res.Served)
	}
	checkNoLeaks(t, f)
}

// TestFaultAllDevicesDownAbortsDisplaced: when the whole fleet dies, in-flight
// streams are aborted with their partial results retained — and no refs leak
// even though no device survived to resume them.
func TestFaultAllDevicesDownAbortsDisplaced(t *testing.T) {
	f := newTestFleet(t, Admission{}, DeviceConfig{Name: "only"})
	res, err := f.RunWithFaults(
		[]StreamRequest{{
			Name: "s", Scenario: "scenario2", Frames: testFrames(t)[:100], PeriodSec: 0.1,
			Policy: fixedFactory(detmodel.YoloV7, "gpu"),
		}},
		[]Fault{{Device: "only", Kind: FaultDeath, At: 3 * time.Second}},
	)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outcomes[0]
	if !out.Aborted || res.Aborted != 1 || res.Served != 0 {
		t.Fatalf("outcome %+v (served %d aborted %d)", out, res.Served, res.Aborted)
	}
	if out.Stream == nil || len(out.Stream.Result.Records) == 0 {
		t.Fatal("aborted stream lost its partial records")
	}
	if len(out.Stream.Result.Records) >= 100 {
		t.Fatal("aborted stream claims a full serve")
	}
	checkNoLeaks(t, f)
}

// TestFaultDisplacedStreamFreesBudgetSlot is the regression test for the
// queued-stream budget-slot bug: closing a displaced stream's session while
// it waits in the admission queue must also free the failed device's budget
// slot. After the outage ends, the recovered device must accept a new stream
// — a phantom slot would turn it away.
func TestFaultDisplacedStreamFreesBudgetSlot(t *testing.T) {
	f := newTestFleet(t, Admission{PerDeviceStreams: 1, QueueLimit: 4},
		DeviceConfig{Name: "d0"}, DeviceConfig{Name: "d1"})
	frames := testFrames(t)[:50]
	// a and b fill both 1-slot devices. d0's outage displaces its stream
	// into the queue; d1 is full, so the only way back is d0's own slot at
	// recovery — which a phantom entry left behind by the closed session
	// would still be consuming.
	res, err := f.RunWithFaults(
		[]StreamRequest{
			{Name: "a", Scenario: "scenario2", Arrival: 0, Frames: frames,
				PeriodSec: 0.1, Policy: fixedFactory(detmodel.YoloV7Tiny, "gpu")},
			{Name: "b", Scenario: "scenario2", Arrival: 0, Frames: frames,
				PeriodSec: 0.1, Policy: fixedFactory(detmodel.YoloV7Tiny, "gpu")},
		},
		[]Fault{{Device: "d0", Kind: FaultOutage, At: time.Second, Duration: time.Second}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 2 || res.Rejected != 0 || res.Aborted != 0 {
		t.Fatalf("served %d rejected %d aborted %d, want 2/0/0", res.Served, res.Rejected, res.Aborted)
	}
	var displaced *StreamOutcome
	for _, out := range res.Outcomes {
		if out.Migrations > 0 {
			displaced = out
		}
	}
	if displaced == nil {
		t.Fatal("outage displaced no stream")
	}
	if displaced.Device != "d0" {
		t.Fatalf("displaced stream resumed on %s, want the recovered d0", displaced.Device)
	}
	// Resumption happens the moment the slot frees: at recovery, not when
	// d1's stream departs. Downtime is therefore exactly the outage length.
	if displaced.DowntimeSec != 1 {
		t.Fatalf("downtime %.3fs, want exactly the 1s outage (phantom slot delays resumption)",
			displaced.DowntimeSec)
	}
	checkNoLeaks(t, f)
}

// TestFaultQueueDelayExcludesDisplacementWait pins the displaced-stream
// queue accounting: QueueDelaySec measures the wait before the *original*
// admission only, and the wait after displacement — from the fault edge, not
// from the stream's original arrival — is DowntimeSec. A stream admitted
// instantly, displaced at t=1s and resuming at t=2s must therefore report
// queue delay 0 and downtime 1, not a 2-second queue delay re-measured from
// arrival.
func TestFaultQueueDelayExcludesDisplacementWait(t *testing.T) {
	f := newTestFleet(t, Admission{PerDeviceStreams: 1, QueueLimit: 4},
		DeviceConfig{Name: "d0"}, DeviceConfig{Name: "d1"})
	frames := testFrames(t)[:50]
	mk := func(name string) StreamRequest {
		return StreamRequest{
			Name: name, Scenario: "scenario2", Arrival: 0, Frames: frames,
			PeriodSec: 0.1, Policy: fixedFactory(detmodel.YoloV7Tiny, "gpu"),
		}
	}
	// a and b fill both 1-slot devices at t=0 with zero queue delay. d0's
	// 1-second outage displaces its stream; d1 stays full, so the displaced
	// stream waits out the whole outage and resumes on the recovered d0.
	res, err := f.RunWithFaults(
		[]StreamRequest{mk("a"), mk("b")},
		[]Fault{{Device: "d0", Kind: FaultOutage, At: time.Second, Duration: time.Second}},
	)
	if err != nil {
		t.Fatal(err)
	}
	var displaced *StreamOutcome
	for _, out := range res.Outcomes {
		if out.Migrations > 0 {
			displaced = out
		}
	}
	if displaced == nil {
		t.Fatal("outage displaced no stream")
	}
	if got := displaced.QueueDelaySec(); got != 0 {
		t.Fatalf("queue delay %.3fs, want 0 — the displacement wait must not be "+
			"re-measured from the original arrival", got)
	}
	if displaced.DowntimeSec != 1 {
		t.Fatalf("downtime %.3fs, want exactly the 1s from displacement to resume",
			displaced.DowntimeSec)
	}
	checkNoLeaks(t, f)
}

// TestFaultMigrationRequeuesAheadOfArrivals: displaced streams re-enter
// service before new arrivals waiting in the same queue.
func TestFaultMigrationRequeuesAheadOfArrivals(t *testing.T) {
	f := newTestFleet(t, Admission{PerDeviceStreams: 1, QueueLimit: 4},
		DeviceConfig{Name: "d0"}, DeviceConfig{Name: "d1"})
	frames := testFrames(t)[:40]
	mk := func(name string, at time.Duration) StreamRequest {
		return StreamRequest{
			Name: name, Scenario: "scenario2", Arrival: at, Frames: frames,
			PeriodSec: 0.1, Policy: fixedFactory(detmodel.YoloV7Tiny, "gpu"),
		}
	}
	// a and b fill both 1-slot devices; n queues behind them; then d0 fails,
	// displacing its stream into the queue. The displaced stream must resume
	// before n is admitted.
	res, err := f.RunWithFaults(
		[]StreamRequest{mk("a", 0), mk("b", 0), mk("n", time.Second)},
		[]Fault{{Device: "d0", Kind: FaultOutage, At: 2 * time.Second, Duration: time.Second}},
	)
	if err != nil {
		t.Fatal(err)
	}
	var displaced, newcomer *StreamOutcome
	for _, out := range res.Outcomes {
		switch {
		case out.Migrations > 0:
			displaced = out
		case out.Name == "n":
			newcomer = out
		}
	}
	if displaced == nil {
		t.Fatal("no stream migrated")
	}
	resumeAt := time.Duration(displaced.DowntimeSec*float64(time.Second)) + 2*time.Second
	if newcomer.AdmittedAt < resumeAt {
		t.Fatalf("newcomer admitted at %v before the displaced stream resumed (~%v)",
			newcomer.AdmittedAt, resumeAt)
	}
	checkNoLeaks(t, f)
}

// TestFaultFreeRunBitIdenticalToRun pins the acceptance criterion directly:
// RunWithFaults with an empty schedule reproduces Run bit-for-bit on a seeded
// workload.
func TestFaultFreeRunBitIdenticalToRun(t *testing.T) {
	devs := []DeviceConfig{{Name: "edge-a"}, {Name: "edge-b", Scale: 1.25}}
	a := runSeededWorkload(t, devs, "residency-affinity")
	place, err := PlacementByName("residency-affinity")
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{
		Seed: 7, Devices: devs, Placement: place,
		Admission: Admission{PerDeviceStreams: 2, QueueLimit: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := seededRequests(t)
	b, err := f.RunWithFaults(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	compareRuns(t, a, b, "fault-free-vs-run")
}

// TestGenerateFaultsDeterministicAndBounded pins the generator: identical
// configs produce identical schedules, deaths respect the budget, and every
// fault names a known device inside the horizon.
func TestGenerateFaultsDeterministicAndBounded(t *testing.T) {
	names := []string{"edge-b", "edge-a", "edge-c"}
	cfg := DefaultFaultConfig()
	cfg.RatePerSec = 0.2
	a, err := GenerateFaults(cfg, names)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateFaults(cfg, []string{"edge-c", "edge-a", "edge-b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("default config generated no faults at 0.2/s over 120s")
	}
	if len(a) != len(b) {
		t.Fatalf("listing order changed schedule length: %d vs %d", len(a), len(b))
	}
	deaths := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d differs across listing orders: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].At < 0 || a[i].At >= cfg.Horizon {
			t.Fatalf("fault %d outside horizon: %+v", i, a[i])
		}
		if a[i].Kind == FaultDeath {
			deaths++
		}
		known := false
		for _, n := range names {
			if a[i].Device == n {
				known = true
			}
		}
		if !known {
			t.Fatalf("fault %d names unknown device %q", i, a[i].Device)
		}
	}
	if deaths > cfg.MaxDeaths {
		t.Fatalf("%d deaths exceed budget %d", deaths, cfg.MaxDeaths)
	}
	if _, err := GenerateFaults(cfg, nil); err == nil {
		t.Fatal("no devices should fail")
	}
	cfg.RatePerSec = 0
	if _, err := GenerateFaults(cfg, names); err == nil {
		t.Fatal("zero rate should fail")
	}
}

// TestFaultScheduleValidation covers RunWithFaults argument contracts.
func TestFaultScheduleValidation(t *testing.T) {
	f := newTestFleet(t, Admission{}, DeviceConfig{Name: "d0"})
	reqs := []StreamRequest{{
		Name: "s", Scenario: "scenario2", Frames: testFrames(t)[:5], PeriodSec: 0.1,
		Policy: fixedFactory(detmodel.YoloV7Tiny, "gpu"),
	}}
	bad := []([]Fault){
		{{Device: "nope", Kind: FaultOutage, At: 0, Duration: time.Second}},
		{{Device: "d0", Kind: FaultOutage, At: -time.Second, Duration: time.Second}},
		{{Device: "d0", Kind: FaultOutage, At: 0}},
		{{Device: "d0", Kind: FaultBrownout, At: 0, Duration: time.Second}},
		{{Device: "d0", Kind: FaultKind(99), At: 0}},
	}
	for i, faults := range bad {
		if _, err := f.RunWithFaults(reqs, faults); err == nil {
			t.Fatalf("bad schedule %d accepted", i)
		}
	}
}

// TestSnapshotAccessors covers the checkpoint's introspection surface the
// fleet and its tests rely on.
func TestSnapshotAccessors(t *testing.T) {
	f := newTestFleet(t, Admission{}, DeviceConfig{Name: "d0", Seed: 1})
	d := f.Devices()[0]
	pol, err := fixedFactory(detmodel.YoloV7, "gpu")(d.Sys)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := runtime.OpenSession(d.Sys, d.DML, runtime.StreamSpec{
		Name: "s", Frames: testFrames(t)[:10], PeriodSec: 0.1, Policy: pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := sess.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap := sess.Snapshot()
	if snap.Name != "s" || snap.Remaining() != 6 {
		t.Fatalf("snapshot name %q remaining %d", snap.Name, snap.Remaining())
	}
	if !snap.HaveHeld || snap.Held.Model != detmodel.YoloV7 {
		t.Fatalf("held manifest %v/%v", snap.Held, snap.HaveHeld)
	}
	if got := len(snap.Partial().Result.Records); got != 4 {
		t.Fatalf("partial records %d, want 4", got)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	checkNoLeaks(t, f)
}
