package pipeline

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/confgraph"
	"repro/internal/profile"
	"repro/internal/runtime"
	"repro/internal/scene"
	"repro/internal/zoo"
)

type env struct {
	sys   *zoo.System
	ch    *profile.Characterization
	graph *confgraph.Graph
}

var cachedEnv *env

func testEnv(t *testing.T) *env {
	t.Helper()
	if cachedEnv == nil {
		sys := zoo.Default(1)
		ch := profile.Characterize(sys, scene.ValidationSet(1, 400))
		g, err := confgraph.Build(ch, confgraph.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		cachedEnv = &env{sys: sys, ch: ch, graph: g}
	}
	return cachedEnv
}

// freshSHIFT builds a SHIFT runtime on a fresh system (fresh clock and
// memory) reusing the cached characterization.
func freshSHIFT(t *testing.T, opts Options) *SHIFT {
	t.Helper()
	e := testEnv(t)
	sys := zoo.Default(1)
	s, err := NewSHIFT(sys, e.ch, e.graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func shortScenario(t *testing.T) (string, []scene.Frame) {
	t.Helper()
	s := scene.Scenario2()
	return s.Name, s.Render(1)
}

func TestNewSHIFTValidation(t *testing.T) {
	e := testEnv(t)
	bad := DefaultOptions()
	bad.InitialModel = "ghost"
	if _, err := NewSHIFT(e.sys, e.ch, e.graph, bad); err == nil {
		t.Fatal("unknown initial model should fail")
	}
	bad = DefaultOptions()
	bad.InitialProc = "cpu" // CPU is not a runtime accelerator
	if _, err := NewSHIFT(e.sys, e.ch, e.graph, bad); err == nil {
		t.Fatal("CPU initial pair should fail")
	}
}

func TestRunProducesRecordPerFrame(t *testing.T) {
	s := freshSHIFT(t, DefaultOptions())
	name, frames := shortScenario(t)
	res, err := s.Run(name, frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(frames) {
		t.Fatalf("%d records for %d frames", len(res.Records), len(frames))
	}
	if res.Method != "SHIFT" || res.Scenario != name {
		t.Fatalf("result mislabeled: %+v", res)
	}
	for i, rec := range res.Records {
		if rec.Index != frames[i].Index {
			t.Fatalf("record %d has index %d", i, rec.Index)
		}
		if rec.LatSec <= 0 || rec.EnergyJ <= 0 {
			t.Fatalf("frame %d has non-positive costs: %+v", i, rec)
		}
		if rec.IoU < 0 || rec.IoU > 1 {
			t.Fatalf("frame %d IoU out of range: %v", i, rec.IoU)
		}
	}
}

func TestFirstFramePaysLoad(t *testing.T) {
	s := freshSHIFT(t, DefaultOptions())
	name, frames := shortScenario(t)
	res, err := s.Run(name, frames)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Records[0].LoadedModel {
		t.Fatal("first frame did not pay the initial model load")
	}
	// The initial load must dominate the first frame's latency.
	if res.Records[0].LatSec < 1.0 {
		t.Fatalf("first frame latency %v too small to include a YoloV7 load", res.Records[0].LatSec)
	}
}

func TestVirtualClockAdvancesMonotonically(t *testing.T) {
	s := freshSHIFT(t, DefaultOptions())
	name, frames := shortScenario(t)
	before := s.sys.SoC.Clock.Now()
	res, err := s.Run(name, frames)
	if err != nil {
		t.Fatal(err)
	}
	after := s.sys.SoC.Clock.Now()
	var totalLat float64
	for _, rec := range res.Records {
		totalLat += rec.LatSec
	}
	elapsed := (after - before).Seconds()
	if diff := elapsed - totalLat; diff > 0.001 || diff < -0.001 {
		t.Fatalf("clock advanced %.4fs but records sum to %.4fs", elapsed, totalLat)
	}
}

func TestSHIFTSwapsOnContextChanges(t *testing.T) {
	// Scenario 2 crosses three background changes plus a departure; SHIFT
	// must swap at least once and use multiple pairs.
	s := freshSHIFT(t, DefaultOptions())
	name, frames := shortScenario(t)
	res, err := s.Run(name, frames)
	if err != nil {
		t.Fatal(err)
	}
	if SwapCount(res) == 0 {
		t.Fatal("SHIFT never swapped across a scenario with context changes")
	}
	if PairsUsed(res) < 2 {
		t.Fatalf("SHIFT used %d pairs, want >= 2", PairsUsed(res))
	}
}

func TestSHIFTUsesNonGPUAccelerators(t *testing.T) {
	// Table III: SHIFT runs most frames off the GPU (68.7%). Require a
	// majority here.
	s := freshSHIFT(t, DefaultOptions())
	name, frames := shortScenario(t)
	res, err := s.Run(name, frames)
	if err != nil {
		t.Fatal(err)
	}
	if frac := NonGPUFraction(res); frac < 0.3 {
		t.Fatalf("non-GPU fraction %.2f, want >= 0.3", frac)
	}
}

func TestSHIFTDeterministic(t *testing.T) {
	name, frames := shortScenario(t)
	run := func() *runtime.Result {
		s := freshSHIFT(t, DefaultOptions())
		res, err := s.Run(name, frames)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs:\n%+v\n%+v", i, a.Records[i], b.Records[i])
		}
	}
}

func TestNCCGateSavesScheduling(t *testing.T) {
	// Most frames in a stable scenario should take the cheap keep-path.
	s := freshSHIFT(t, DefaultOptions())
	sc := scene.Scenario3() // easy, static indoor scene
	res, err := s.Run(sc.Name, sc.Render(1))
	if err != nil {
		t.Fatal(err)
	}
	rescheduled := 0
	for _, rec := range res.Records {
		if rec.Rescheduled {
			rescheduled++
		}
	}
	if frac := float64(rescheduled) / float64(len(res.Records)); frac > 0.6 {
		t.Fatalf("rescheduled on %.0f%% of stable frames; NCC gate ineffective", frac*100)
	}
}

func TestSwapAccountingConsistency(t *testing.T) {
	s := freshSHIFT(t, DefaultOptions())
	name, frames := shortScenario(t)
	res, err := s.Run(name, frames)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute swaps from the pair sequence; record flags must agree.
	swaps := 0
	for i := 1; i < len(res.Records); i++ {
		changed := res.Records[i].Pair != res.Records[i-1].Pair
		if changed {
			swaps++
		}
		if changed != res.Records[i].Swapped {
			t.Fatalf("frame %d Swapped=%v but pair change=%v", i, res.Records[i].Swapped, changed)
		}
	}
	if got := SwapCount(res); got != swaps {
		t.Fatalf("SwapCount %d != pair-sequence swaps %d", got, swaps)
	}
}

func TestPrefetchReducesMidStreamLoads(t *testing.T) {
	name, frames := shortScenario(t)
	base := freshSHIFT(t, DefaultOptions())
	baseRes, err := base.Run(name, frames)
	if err != nil {
		t.Fatal(err)
	}
	pre := DefaultOptions()
	pre.Prefetch = true
	prefetched := freshSHIFT(t, pre)
	preRes, err := prefetched.Run(name, frames)
	if err != nil {
		t.Fatal(err)
	}
	// With prefetching, engines for small models are already resident
	// before frame 0, so fewer frames pay a demand load mid-stream. (The
	// loader's total Loads count rises: it includes the prefetch loads.)
	demandLoads := func(res *runtime.Result) int {
		n := 0
		for _, r := range res.Records {
			if r.LoadedModel {
				n++
			}
		}
		return n
	}
	if got, base := demandLoads(preRes), demandLoads(baseRes); got >= base {
		t.Fatalf("prefetch did not reduce demand loads: %d with prefetch vs %d without", got, base)
	}
}

func TestHelperMetrics(t *testing.T) {
	mk := func(kind accel.Kind, model string, swapped bool) runtime.FrameRecord {
		return runtime.FrameRecord{Pair: zoo.Pair{Model: model, ProcID: "x", Kind: kind}, Swapped: swapped}
	}
	res := &runtime.Result{Records: []runtime.FrameRecord{
		mk(accel.KindGPU, "a", false),
		mk(accel.KindDLA, "a", true),
		mk(accel.KindDLA, "b", true),
		mk(accel.KindOAKD, "a", true),
	}}
	if got := NonGPUFraction(res); got != 0.75 {
		t.Fatalf("NonGPUFraction = %v, want 0.75", got)
	}
	if got := SwapCount(res); got != 3 {
		t.Fatalf("SwapCount = %v, want 3", got)
	}
	if got := PairsUsed(res); got != 4 {
		t.Fatalf("PairsUsed = %v, want 4 (a/GPU, a/DLA, b/DLA, a/OAK-D)", got)
	}
	empty := &runtime.Result{}
	if NonGPUFraction(empty) != 0 || SwapCount(empty) != 0 || PairsUsed(empty) != 0 {
		t.Fatal("empty result metrics should be zero")
	}
}

func BenchmarkSHIFTPerFrame(b *testing.B) {
	sys := zoo.Default(1)
	ch := profile.Characterize(sys, scene.ValidationSet(1, 300))
	g, err := confgraph.Build(ch, confgraph.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSHIFT(zoo.Default(1), ch, g, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	sc := scene.Scenario2()
	frames := sc.Render(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(sc.Name, frames); err != nil {
			b.Fatal(err)
		}
	}
}
