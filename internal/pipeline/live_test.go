package pipeline

import (
	"repro/internal/confgraph"
	"repro/internal/profile"
	"repro/internal/runtime"
	"repro/internal/zoo"
	"testing"

	"repro/internal/scene"
)

func TestRunLiveValidation(t *testing.T) {
	s := freshSHIFT(t, DefaultOptions())
	name, frames := shortScenario(t)
	if _, err := s.RunLive(name, frames, -1); err == nil {
		t.Fatal("negative period should fail")
	}
}

func TestRunLiveZeroPeriodProcessesEverything(t *testing.T) {
	s := freshSHIFT(t, DefaultOptions())
	name, frames := shortScenario(t)
	live, err := s.RunLive(name, frames, 0)
	if err != nil {
		t.Fatal(err)
	}
	if live.Dropped != 0 {
		t.Fatalf("period 0 dropped %d frames", live.Dropped)
	}
	if len(live.Result.Records) != len(frames) {
		t.Fatalf("processed %d of %d", len(live.Result.Records), len(frames))
	}
	if live.DropRate() != 0 {
		t.Fatalf("drop rate %v", live.DropRate())
	}
}

func TestRunLiveDropsUnderFastCamera(t *testing.T) {
	// A 100 fps camera outruns every pair in the zoo, so frames must drop;
	// the pipeline keeps running and effective accuracy stays positive
	// because stale boxes still overlap a slowly moving target.
	s := freshSHIFT(t, DefaultOptions())
	name, frames := shortScenario(t)
	live, err := s.RunLive(name, frames, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if live.Dropped == 0 {
		t.Fatal("100 fps camera should force drops")
	}
	if live.Delivered != len(frames) {
		t.Fatalf("delivered %d, want %d", live.Delivered, len(frames))
	}
	if got := live.Dropped + len(live.Result.Records); got != live.Delivered {
		t.Fatalf("dropped %d + processed %d != delivered %d",
			live.Dropped, len(live.Result.Records), live.Delivered)
	}
	if live.EffectiveIoU <= 0 {
		t.Fatal("effective IoU should be positive on a mostly-visible stream")
	}
}

func TestRunLiveSlowCameraMatchesOffline(t *testing.T) {
	// A very slow camera (1 fps) never drops: per-frame behaviour should
	// track the offline run's record count exactly.
	s := freshSHIFT(t, DefaultOptions())
	name, frames := shortScenario(t)
	live, err := s.RunLive(name, frames, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if live.Dropped != 0 {
		t.Fatalf("slow camera dropped %d frames", live.Dropped)
	}
}

func TestRunLiveEffectiveIoUBelowProcessedIoU(t *testing.T) {
	// Stale detections cannot beat fresh ones on a moving target: the
	// effective (stream-level) IoU under drops must not exceed the mean IoU
	// of the processed frames.
	s := freshSHIFT(t, DefaultOptions())
	name, frames := shortScenario(t)
	live, err := s.RunLive(name, frames, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if live.Dropped == 0 {
		t.Skip("no drops at this rate")
	}
	var processed float64
	for _, rec := range live.Result.Records {
		processed += rec.IoU
	}
	processed /= float64(len(live.Result.Records))
	if live.EffectiveIoU > processed+1e-9 {
		t.Fatalf("effective IoU %.3f above processed IoU %.3f", live.EffectiveIoU, processed)
	}
}

func TestRunLiveDeterministic(t *testing.T) {
	name, frames := shortScenario(t)
	run := func() *LiveResult {
		s := freshSHIFT(t, DefaultOptions())
		live, err := s.RunLive(name, frames, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		return live
	}
	a, b := run(), run()
	if a.Dropped != b.Dropped || a.EffectiveIoU != b.EffectiveIoU {
		t.Fatalf("live runs diverged: %+v vs %+v", a, b)
	}
}

func TestStaleIoU(t *testing.T) {
	name, frames := shortScenario(t)
	_ = name
	rec := runtime.FrameRecord{Found: true, IoU: 0.8, Box: frames[0].GT}
	// Against its own frame the stale score equals a perfect overlap.
	if got := staleIoU(rec, frames[0]); got != 1 {
		t.Fatalf("self stale IoU %v", got)
	}
	// Against the departed segment there is no GT.
	if got := staleIoU(rec, frames[len(frames)-1]); got != 0 {
		t.Fatalf("stale IoU vs empty GT %v", got)
	}
	if got := staleIoU(runtime.FrameRecord{}, frames[0]); got != 0 {
		t.Fatalf("miss stale IoU %v", got)
	}
}

func BenchmarkRunLive(b *testing.B) {
	sys := zoo.Default(1)
	ch := profile.Characterize(sys, scene.ValidationSet(1, 300))
	g, err := confgraph.Build(ch, confgraph.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	sc := scene.Scenario2()
	frames := sc.Render(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSHIFT(zoo.Default(1), ch, g, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.RunLive(sc.Name, frames, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}
