package metrics

import (
	"math"
	"testing"

	"repro/internal/runtime"
)

func resultWithLatencies(lats ...float64) *runtime.Result {
	res := &runtime.Result{}
	for i, l := range lats {
		res.Records = append(res.Records, runtime.FrameRecord{Index: i, LatSec: l})
	}
	return res
}

func TestDeadlineAllOnTime(t *testing.T) {
	res := resultWithLatencies(0.01, 0.02, 0.01)
	d := Deadline(res, 1.0/30)
	if d.Late != 0 || d.OnTime != 3 {
		t.Fatalf("stats: %+v", d)
	}
	if d.OnTimeRate() != 1 {
		t.Fatalf("rate: %v", d.OnTimeRate())
	}
	if d.MaxBacklogSec != 0 {
		t.Fatalf("backlog should be zero: %v", d.MaxBacklogSec)
	}
}

func TestDeadlineAllLate(t *testing.T) {
	// 100 ms processing at 30 fps: every frame misses, backlog grows.
	res := resultWithLatencies(0.1, 0.1, 0.1, 0.1)
	d := Deadline(res, 1.0/30)
	if d.OnTime != 0 || d.Late != 4 {
		t.Fatalf("stats: %+v", d)
	}
	if d.MaxBacklogSec <= 0 {
		t.Fatal("sustained overrun must accumulate backlog")
	}
	// Backlog after frame i is i*(0.1 - period); max at the last frame.
	want := 3 * (0.1 - 1.0/30)
	if math.Abs(d.MaxBacklogSec-want) > 1e-9 {
		t.Fatalf("max backlog %v, want %v", d.MaxBacklogSec, want)
	}
}

func TestDeadlineMixed(t *testing.T) {
	// One slow frame followed by fast ones: the slow frame is late, the
	// next frame absorbs the backlog, later frames recover.
	period := 0.033
	res := resultWithLatencies(0.1, 0.005, 0.005, 0.005)
	d := Deadline(res, period)
	if d.Late == 0 {
		t.Fatal("slow frame should be late")
	}
	if d.OnTime == 0 {
		t.Fatal("fast tail should recover")
	}
	if d.AvgLatencySec <= 0.005 {
		t.Fatalf("avg latency must include queueing: %v", d.AvgLatencySec)
	}
}

func TestDeadlineQueueingLatency(t *testing.T) {
	// Two frames, first takes 2 periods: second starts late and its
	// arrival-to-completion latency includes the wait.
	period := 0.1
	res := resultWithLatencies(0.2, 0.05)
	d := Deadline(res, period)
	// Frame 1 arrives at 0.1, starts at 0.2, done at 0.25 -> latency 0.15.
	want := (0.2 + 0.15) / 2
	if math.Abs(d.AvgLatencySec-want) > 1e-9 {
		t.Fatalf("avg latency %v, want %v", d.AvgLatencySec, want)
	}
}

func TestDeadlineDegenerate(t *testing.T) {
	if d := Deadline(&runtime.Result{}, 0.033); d.OnTime != 0 || d.Late != 0 {
		t.Fatal("empty result should be zero stats")
	}
	if d := Deadline(resultWithLatencies(0.01), 0); d.OnTimeRate() != 0 {
		t.Fatal("non-positive period should be zero stats")
	}
}

func TestDeadlineString(t *testing.T) {
	d := Deadline(resultWithLatencies(0.01, 0.01), 1.0/30)
	if s := d.String(); s == "" {
		t.Fatal("empty String")
	}
}
