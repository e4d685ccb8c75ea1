package fleet

import (
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/detmodel"
	"repro/internal/loader"
	"repro/internal/runtime"
	"repro/internal/scene"
	"repro/internal/zoo"
)

var cachedFrames []scene.Frame

func testFrames(t testing.TB) []scene.Frame {
	t.Helper()
	if cachedFrames == nil {
		cachedFrames = scene.Scenario2().Render(1)
	}
	return cachedFrames
}

func testPair(t testing.TB, sys *zoo.System, model, procID string) zoo.Pair {
	t.Helper()
	for _, p := range sys.RuntimePairs() {
		if p.Model == model && p.ProcID == procID {
			return p
		}
	}
	t.Fatalf("no runtime pair %s@%s", model, procID)
	return zoo.Pair{}
}

// fixedPolicy serves every frame from one (model, proc) pair.
type fixedPolicy struct {
	model, proc string
	pair        zoo.Pair
}

func (p *fixedPolicy) Name() string { return "fixed " + p.model + "@" + p.proc }
func (p *fixedPolicy) Reset(e *runtime.Engine) error {
	for _, rp := range e.System().RuntimePairs() {
		if rp.Model == p.model && rp.ProcID == p.proc {
			p.pair = rp
			return nil
		}
	}
	return nil
}
func (p *fixedPolicy) Step(st *runtime.Step) error {
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

// fixedFactory builds per-stream fixedPolicy instances.
func fixedFactory(model, proc string) PolicyFactory {
	return func(*zoo.System) (runtime.Policy, error) {
		return &fixedPolicy{model: model, proc: proc}, nil
	}
}

// TestFleetSingleDeviceReproducesServe pins the acceptance criterion: a
// one-device fleet with statically admitted streams (all arriving at 0, no
// admission pressure) reproduces runtime.Serve on the same platform
// bit-for-bit — records and timings.
func TestFleetSingleDeviceReproducesServe(t *testing.T) {
	frames := testFrames(t)[:80]
	for _, n := range []int{1, 3} {
		// Reference: runtime.Serve on zoo.Default(1).
		sys := zoo.Default(1)
		dml := loader.New(sys, loader.EvictLRR)
		specs := make([]runtime.StreamSpec, n)
		for i := range specs {
			specs[i] = runtime.StreamSpec{
				Name:      "stream" + string(rune('0'+i)),
				Frames:    frames,
				PeriodSec: 0.1,
				Policy:    &fixedPolicy{model: detmodel.YoloV7, proc: "gpu"},
			}
		}
		want, err := runtime.Serve(sys, dml, specs)
		if err != nil {
			t.Fatal(err)
		}

		// Fleet: one device pinned to the same seed, same streams at t=0.
		f, err := New(Config{Seed: 99, Devices: []DeviceConfig{{Name: "solo", Seed: 1}}})
		if err != nil {
			t.Fatal(err)
		}
		reqs := make([]StreamRequest, n)
		for i := range reqs {
			reqs[i] = StreamRequest{
				Name:      "stream" + string(rune('0'+i)),
				Scenario:  "scenario2",
				Frames:    frames,
				PeriodSec: 0.1,
				Policy:    fixedFactory(detmodel.YoloV7, "gpu"),
			}
		}
		res, err := f.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		if res.Served != n || res.Rejected != 0 {
			t.Fatalf("n=%d: served %d rejected %d", n, res.Served, res.Rejected)
		}
		for i, out := range res.Outcomes {
			got := out.Stream
			if len(got.Result.Records) != len(want[i].Result.Records) {
				t.Fatalf("n=%d stream %d: %d records vs %d", n, i,
					len(got.Result.Records), len(want[i].Result.Records))
			}
			for j := range want[i].Result.Records {
				if got.Result.Records[j] != want[i].Result.Records[j] {
					t.Fatalf("n=%d stream %d record %d differs:\nfleet %+v\nserve %+v",
						n, i, j, got.Result.Records[j], want[i].Result.Records[j])
				}
				if got.Timings[j] != want[i].Timings[j] {
					t.Fatalf("n=%d stream %d timing %d differs:\nfleet %+v\nserve %+v",
						n, i, j, got.Timings[j], want[i].Timings[j])
				}
			}
		}
		// All residency holds released on every device.
		for _, d := range f.Devices() {
			if refs := d.DML.Refs(testPair(t, d.Sys, detmodel.YoloV7, "gpu")); refs != 0 {
				t.Fatalf("device %s leaked %d refs", d.Name, refs)
			}
		}
	}
}

// TestFleetAdmissionBudgetAndQueue: one device with a 1-stream budget and a
// 1-slot queue offered three overlapping streams must serve the first,
// queue the second (admitting it when the first departs) and reject the
// third.
func TestFleetAdmissionBudgetAndQueue(t *testing.T) {
	f, err := New(Config{
		Seed:      1,
		Devices:   []DeviceConfig{{Name: "d0"}},
		Admission: Admission{PerDeviceStreams: 1, QueueLimit: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := testFrames(t)[:30]
	mk := func(name string, at time.Duration) StreamRequest {
		return StreamRequest{
			Name: name, Scenario: "scenario2", Arrival: at,
			Frames: frames, PeriodSec: 0.1,
			Policy: fixedFactory(detmodel.YoloV7Tiny, "gpu"),
		}
	}
	// 30 frames at 10 fps ≈ 3 s per stream; all three arrive inside the
	// first stream's service time.
	res, err := f.Run([]StreamRequest{
		mk("s0", 0),
		mk("s1", 500*time.Millisecond),
		mk("s2", time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 2 || res.Rejected != 1 {
		t.Fatalf("served %d rejected %d, want 2/1", res.Served, res.Rejected)
	}
	o0, o1, o2 := res.Outcomes[0], res.Outcomes[1], res.Outcomes[2]
	if o0.Rejected || o0.AdmittedAt != 0 {
		t.Fatalf("s0 outcome %+v", o0)
	}
	if o1.Rejected {
		t.Fatal("s1 should have been queued, not rejected")
	}
	if o1.AdmittedAt <= o1.Arrival {
		t.Fatalf("s1 admitted at %v, arrival %v: expected queueing delay", o1.AdmittedAt, o1.Arrival)
	}
	// s1 is admitted exactly when s0 departs.
	lastDone := o0.Stream.Timings[len(o0.Stream.Timings)-1].Done
	if o1.AdmittedAt != lastDone {
		t.Fatalf("s1 admitted at %v, s0 completed at %v", o1.AdmittedAt, lastDone)
	}
	if !o2.Rejected {
		t.Fatal("s2 should have been rejected (queue full)")
	}
}

// TestFleetRoundRobinRotation: sequentially arriving streams rotate across
// devices in name order.
func TestFleetRoundRobinRotation(t *testing.T) {
	f, err := New(Config{
		Seed:      1,
		Devices:   []DeviceConfig{{Name: "d1"}, {Name: "d0"}, {Name: "d2"}},
		Placement: NewRoundRobin(),
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := testFrames(t)[:5]
	var reqs []StreamRequest
	for i := 0; i < 6; i++ {
		reqs = append(reqs, StreamRequest{
			Name: "s" + string(rune('0'+i)), Scenario: "scenario2",
			Arrival: time.Duration(i) * 30 * time.Second, // non-overlapping
			Frames:  frames, PeriodSec: 0.1,
			Policy: fixedFactory(detmodel.YoloV7Tiny, "gpu"),
		})
	}
	res, err := f.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"d0", "d1", "d2", "d0", "d1", "d2"}
	for i, out := range res.Outcomes {
		if out.Device != want[i] {
			t.Fatalf("stream %d on %s, want %s", i, out.Device, want[i])
		}
	}
}

// TestFleetLeastOutstandingAvoidsBacklog: with one device already loaded,
// join-the-shortest-queue sends the next stream to the idle device.
func TestFleetLeastOutstandingAvoidsBacklog(t *testing.T) {
	f, err := New(Config{
		Seed:      1,
		Devices:   []DeviceConfig{{Name: "d0"}, {Name: "d1"}},
		Placement: NewLeastOutstanding(),
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := testFrames(t)
	long := StreamRequest{
		Name: "long", Scenario: "scenario2", Arrival: 0,
		Frames: frames[:400], PeriodSec: 0.1,
		Policy: fixedFactory(detmodel.YoloV7, "gpu"),
	}
	short := StreamRequest{
		Name: "short", Scenario: "scenario2", Arrival: time.Second,
		Frames: frames[:20], PeriodSec: 0.1,
		Policy: fixedFactory(detmodel.YoloV7Tiny, "gpu"),
	}
	res, err := f.Run([]StreamRequest{long, short})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[0].Device != "d0" {
		t.Fatalf("long stream on %s, want d0 (tie at empty fleet)", res.Outcomes[0].Device)
	}
	if res.Outcomes[1].Device != "d1" {
		t.Fatalf("short stream on %s, want the idle d1", res.Outcomes[1].Device)
	}
}

// TestFleetResidencyAffinityPrefersWarmDevice: after a scenario's stream
// completes on one device, the next stream of that scenario is placed back
// on it (its engines are resident) instead of the round-robin alternative,
// and pays no additional engine load.
func TestFleetResidencyAffinityPrefersWarmDevice(t *testing.T) {
	f, err := New(Config{
		Seed:      1,
		Devices:   []DeviceConfig{{Name: "d0"}, {Name: "d1"}},
		Placement: NewResidencyAffinity(),
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := testFrames(t)[:20]
	mk := func(name, scenario, model string, at time.Duration) StreamRequest {
		return StreamRequest{
			Name: name, Scenario: scenario, Arrival: at,
			Frames: frames, PeriodSec: 0.1,
			Policy: fixedFactory(model, "gpu"),
		}
	}
	// Sequential (non-overlapping) arrivals: a0, then b0, then a1.
	res, err := f.Run([]StreamRequest{
		mk("a0", "A", detmodel.YoloV7, 0),
		mk("b0", "B", detmodel.SSDResnet50, 60*time.Second),
		mk("a1", "A", detmodel.YoloV7, 120*time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	devA0 := res.Outcomes[0].Device
	devB0 := res.Outcomes[1].Device
	devA1 := res.Outcomes[2].Device
	if devA0 == devB0 {
		t.Fatalf("a0 and b0 both on %s: horizon tie-break should spread idle devices", devA0)
	}
	if devA1 != devA0 {
		t.Fatalf("a1 on %s, want the warm %s", devA1, devA0)
	}
	// The warm placement paid exactly one YoloV7 load across the fleet.
	loads := 0
	for _, d := range res.Devices {
		loads += d.Loads
	}
	if loads != 2 { // one YoloV7 engine + one Resnet50 engine
		t.Fatalf("fleet paid %d loads, want 2 (warm re-placement loads nothing)", loads)
	}
}

// TestFleetHeterogeneousScale: the same stream served by a half-speed
// device takes about twice as long.
func TestFleetHeterogeneousScale(t *testing.T) {
	run := func(scale float64) time.Duration {
		f, err := New(Config{
			Seed:    1,
			Devices: []DeviceConfig{{Name: "dev", Seed: 1, Scale: scale}},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run([]StreamRequest{{
			Name: "s", Scenario: "scenario2",
			Frames: testFrames(t)[:50], PeriodSec: 0, // offline pacing: pure service time
			Policy: fixedFactory(detmodel.YoloV7, "gpu"),
		}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Horizon
	}
	base, slow := run(1), run(2)
	ratio := float64(slow) / float64(base)
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("half-speed device horizon ratio %.3f, want ~2", ratio)
	}
}

// TestFleetValidation covers constructor and workload argument contracts.
func TestFleetValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty fleet should fail")
	}
	if _, err := New(Config{Devices: []DeviceConfig{{Name: "a"}, {Name: "a"}}}); err == nil {
		t.Fatal("duplicate device names should fail")
	}
	if _, err := New(Config{Devices: []DeviceConfig{{Name: ""}}}); err == nil {
		t.Fatal("empty device name should fail")
	}
	if _, err := New(Config{Devices: []DeviceConfig{{Name: "a", Scale: -1}}}); err == nil {
		t.Fatal("negative scale should fail")
	}
	src := func(s *scene.Scenario) []scene.Frame { return testFrames(t) }
	pol := fixedFactory(detmodel.YoloV7Tiny, "gpu")
	bad := DefaultWorkloadConfig()
	bad.Streams = 0
	if _, err := GenerateWorkload(bad, src, pol); err == nil {
		t.Fatal("zero streams should fail")
	}
	bad = DefaultWorkloadConfig()
	bad.RatePerSec = 0
	if _, err := GenerateWorkload(bad, src, pol); err == nil {
		t.Fatal("zero rate should fail")
	}
	bad = DefaultWorkloadConfig()
	bad.MinFrames = 50
	bad.MaxFrames = 10
	if _, err := GenerateWorkload(bad, src, pol); err == nil {
		t.Fatal("inverted frame bounds should fail")
	}
	if _, err := PlacementByName("nope"); err == nil {
		t.Fatal("unknown placement should fail")
	}
}

// TestShapedWorkload pins the non-homogeneous generator: identical inputs
// replay bit-for-bit, a burst shape clumps arrivals inside its window, and
// the argument contracts hold.
func TestShapedWorkload(t *testing.T) {
	src := func(*scene.Scenario) []scene.Frame { return testFrames(t) }
	pol := fixedFactory(detmodel.YoloV7Tiny, "gpu")
	cfg := DefaultWorkloadConfig()
	cfg.Streams = 24
	cfg.RatePerSec = 0.1
	base, factor := 0.1, 12.0
	burst := BurstRate(base, factor, 30*time.Second, 20*time.Second)
	peak := base * factor // the same runtime product BurstRate computes
	a, err := GenerateShapedWorkload(cfg, burst, peak, src, pol)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateShapedWorkload(cfg, burst, peak, src, pol)
	if err != nil {
		t.Fatal(err)
	}
	inBurst := 0
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Arrival != b[i].Arrival || a[i].Scenario != b[i].Scenario {
			t.Fatalf("request %d differs across identical configs", i)
		}
		if i > 0 && a[i].Arrival <= a[i-1].Arrival {
			t.Fatalf("arrivals not strictly increasing at %d", i)
		}
		if s := a[i].Arrival.Seconds(); s >= 30 && s < 50 {
			inBurst++
		}
	}
	// The 20 s window at 12× the base rate must hold the bulk of the trace:
	// expected ~24 arrivals inside vs ~0.1/s outside.
	if inBurst < len(a)/2 {
		t.Fatalf("burst window holds %d of %d arrivals; the shape did not clump", inBurst, len(a))
	}
	// The diurnal shape stays positive and periodic.
	rate := DiurnalRate(1, 0.5, 100*time.Second)
	if r := rate(25); r < 1.49 || r > 1.51 {
		t.Fatalf("diurnal peak %v, want ~1.5", r)
	}
	if r := rate(75); r < 0.49 || r > 0.51 {
		t.Fatalf("diurnal trough %v, want ~0.5", r)
	}

	if _, err := GenerateShapedWorkload(cfg, nil, 1, src, pol); err == nil {
		t.Fatal("nil rate should fail")
	}
	if _, err := GenerateShapedWorkload(cfg, burst, 0, src, pol); err == nil {
		t.Fatal("zero peak should fail")
	}
	// A rate above the declared peak is a thinning-contract violation.
	if _, err := GenerateShapedWorkload(cfg, burst, 0.5, src, pol); err == nil {
		t.Fatal("rate above peak should fail")
	}
}

// TestAffinityOrderIsEngineKeyString pins the order residency placement and
// pre-warm observe: engine-key string order, where a model sorts after the
// models its name prefixes ('-' < '/'), and the last pair taught for each
// (model, kind) is the one kept.
func TestAffinityOrderIsEngineKeyString(t *testing.T) {
	f := &Fleet{affinity: map[string]map[zoo.EngineKey]zoo.Pair{}}
	p := func(model, proc string, kind accel.Kind) runtime.FrameRecord {
		return runtime.FrameRecord{Pair: zoo.Pair{Model: model, ProcID: proc, Kind: kind}}
	}
	f.teach("s", []runtime.FrameRecord{
		p(detmodel.YoloV7, "gpu", accel.KindGPU),
		p(detmodel.YoloV7, "dla0", accel.KindDLA),
		p(detmodel.YoloV7Tiny, "dla1", accel.KindDLA),
		p(detmodel.SSDMobilenetV2, "gpu", accel.KindGPU),
		p(detmodel.YoloV7X, "gpu", accel.KindGPU),
		p(detmodel.SSDMobilenet320, "gpu", accel.KindGPU),
		p(detmodel.YoloV7, "dla1", accel.KindDLA),
		p(detmodel.YoloV7E6E, "dla0", accel.KindDLA),
		p(detmodel.YoloV7Tiny, "gpu", accel.KindGPU),
		p(detmodel.YoloV7Tiny, "dla0", accel.KindDLA),
	})
	f.teach("s", []runtime.FrameRecord{p(detmodel.YoloV7, "oakd", accel.KindOAKD)})
	want := []string{
		"SSD-MobilenetV2-320/GPU@gpu",
		"SSD-MobilenetV2/GPU@gpu",
		"YoloV7-E6E/DLA@dla0",
		"YoloV7-Tiny/DLA@dla0",
		"YoloV7-Tiny/GPU@gpu",
		"YoloV7-X/GPU@gpu",
		"YoloV7/DLA@dla1",
		"YoloV7/GPU@gpu",
		"YoloV7/OAK-D@oakd",
	}
	got := f.Affinity("s")
	if len(got) != len(want) {
		t.Fatalf("Affinity holds %d engines, want %d: %v", len(got), len(want), got)
	}
	for i, pair := range got {
		if s := pair.EngineKey().String() + "@" + pair.ProcID; s != want[i] {
			t.Fatalf("Affinity[%d] = %s, want %s (all: %v)", i, s, want[i], got)
		}
	}
}
