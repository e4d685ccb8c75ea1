package obs_test

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// record plays a tiny two-stream scenario into a fresh recorder: stream a is
// admitted after a queue wait and serves two frames (one with a swap stall),
// stream b is offered and rejected, and the device browns out once.
func record() *obs.Recorder {
	r := obs.NewRecorder()
	r.Arrival("a", 0)
	sr := r.OpenStream("a", "dev0")
	r.QueueWait("a", "dev0", 0, 10*time.Millisecond)
	sr.Load("gpu", "yolo", 10*time.Millisecond, 30*time.Millisecond, 0)
	sr.Exec("gpu", "yolo", 30*time.Millisecond, 50*time.Millisecond, 2*time.Millisecond, 0)
	sr.Frame(0, 0, 10*time.Millisecond, 50*time.Millisecond,
		2*time.Millisecond, 20*time.Millisecond, 100*time.Millisecond)
	sr.LoadHit("yolo", 50*time.Millisecond, 1)
	sr.Exec("gpu", "yolo", 50*time.Millisecond, 65*time.Millisecond, 0, 1)
	sr.Frame(1, 40*time.Millisecond, 50*time.Millisecond, 65*time.Millisecond,
		0, 0, 10*time.Millisecond)
	r.Collect(sr)
	r.Arrival("b", 20*time.Millisecond)
	r.Reject()
	r.Brownout("dev0", 60*time.Millisecond, 70*time.Millisecond)
	return r
}

// TestRegistryFold checks every fold rule the scenario reaches: offered and
// admitted streams, hit and miss loads, execs, frames (one past deadline),
// rejection, brownout, and the derived histograms.
func TestRegistryFold(t *testing.T) {
	reg := record().Registry()
	for _, c := range []struct {
		name string
		want int64
	}{
		{"streams_offered", 2},
		{"streams_admitted", 1},
		{"streams_rejected", 1},
		{"loads_hit", 1},
		{"loads_miss", 1},
		{"execs", 2},
		{"frames", 2},
		{"frames_missed", 1},
		{"brownouts", 1},
		{"migrations", 0},
	} {
		if got := reg.Counter(c.name); got != c.want {
			t.Errorf("counter %s = %d, want %d", c.name, got, c.want)
		}
	}
	if h := reg.Histogram("frame_latency"); h == nil || h.Count != 2 {
		t.Fatalf("frame_latency histogram %+v, want 2 observations", h)
	} else {
		if h.Min != 25*time.Millisecond || h.Max != 50*time.Millisecond {
			t.Fatalf("frame_latency min %v max %v, want 25ms/50ms", h.Min, h.Max)
		}
		if h.Sum != 75*time.Millisecond {
			t.Fatalf("frame_latency sum %v, want 75ms", h.Sum)
		}
	}
	if h := reg.Histogram("load_stall"); h == nil || h.Count != 1 || h.Sum != 20*time.Millisecond {
		t.Fatalf("load_stall histogram %+v, want one 20ms stall", h)
	}
	out := reg.Render()
	for _, want := range []string{"streams_offered", "frame_latency", "p99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render output missing %q:\n%s", want, out)
		}
	}
}

// TestFrameSpanDecomposition pins the Frame helper's arithmetic: queue is
// admission-to-start, exec is the remainder after wait and swap, and the four
// components sum exactly to the span duration.
func TestFrameSpanDecomposition(t *testing.T) {
	var frames []obs.Span
	for _, sp := range record().Spans() {
		if sp.Kind == obs.SpanFrame {
			frames = append(frames, sp)
		}
	}
	if len(frames) != 2 {
		t.Fatalf("%d frame spans, want 2", len(frames))
	}
	f0 := frames[0]
	if f0.Queue != 10*time.Millisecond || f0.Swap != 20*time.Millisecond ||
		f0.Wait != 2*time.Millisecond || f0.Exec != 18*time.Millisecond {
		t.Fatalf("frame 0 decomposition %+v", f0)
	}
	for _, sp := range frames {
		if sp.Queue+sp.Wait+sp.Swap+sp.Exec != sp.Dur() {
			t.Fatalf("frame %d: %v+%v+%v+%v != %v", sp.Frame, sp.Queue, sp.Wait, sp.Swap, sp.Exec, sp.Dur())
		}
	}
}

// TestAttributionSharesAndP99 checks the reduction over the scenario and the
// cross-package p99 contract: obs restates metrics' nearest-rank percentile
// locally (an import would cycle), and the two must agree bit-for-bit on
// every sample set, degenerate ones included.
func TestAttributionSharesAndP99(t *testing.T) {
	a := record().Attribution()
	if a.Frames != 2 {
		t.Fatalf("frames %d, want 2", a.Frames)
	}
	total := a.QueueShare + a.SwapShare + a.ExecShare + a.InterferenceShare
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("shares sum to %v", total)
	}
	if a.SwapShare <= 0 || a.SwapStallShareOfP99 <= 0 {
		t.Fatalf("swap shares %v / %v, want positive (frame 0 stalled 20ms)",
			a.SwapShare, a.SwapStallShareOfP99)
	}
	// p99 parity with internal/metrics across sizes 1..200 of a scrambled
	// deterministic sample set.
	for n := 1; n <= 200; n++ {
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = math.Sin(float64(i*n+1)) * 10
		}
		want := metrics.Latencies(samples).P99
		rec := obs.NewRecorder()
		sr := rec.OpenStream("s", "d")
		for i, s := range samples {
			ns := time.Duration(math.Abs(s) * float64(time.Second))
			sr.Frame(i, 0, 0, ns, 0, 0, time.Hour)
		}
		rec.Collect(sr)
		var lats []float64
		for _, sp := range rec.Spans() {
			lats = append(lats, sp.Dur().Seconds())
		}
		if got := rec.Attribution().P99Sec; got != metrics.Latencies(lats).P99 {
			t.Fatalf("n=%d: obs p99 %v != metrics p99 over same spans %v", n, got, metrics.Latencies(lats).P99)
		}
		_ = want
	}
}

// TestHistQuantiles drives the power-of-two-bucket histogram directly:
// quantiles are upper-bound estimates that never undershoot the true value's
// bucket floor and the max is exact.
func TestHistQuantiles(t *testing.T) {
	var h obs.Hist
	var all []time.Duration
	for i := 1; i <= 1000; i++ {
		d := time.Duration(i) * time.Millisecond
		h.Observe(d)
		all = append(all, d)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if h.Count != 1000 || h.Min != time.Millisecond || h.Max != time.Second {
		t.Fatalf("hist stats count=%d min=%v max=%v", h.Count, h.Min, h.Max)
	}
	if got := h.Mean(); got != 500500*time.Microsecond {
		t.Fatalf("mean %v, want 500.5ms", got)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 1} {
		true99 := all[int(q*float64(len(all)-1))]
		got := h.Quantile(q)
		if got < true99 {
			t.Fatalf("q=%.2f: estimate %v undershoots true %v", q, got, true99)
		}
		if got > h.Max {
			t.Fatalf("q=%.2f: estimate %v above max %v", q, got, h.Max)
		}
	}
	// Negative observations clamp to zero rather than corrupting buckets.
	var neg obs.Hist
	neg.Observe(-time.Second)
	if neg.Count != 1 || neg.Min != 0 || neg.Quantile(0.5) < 0 {
		t.Fatalf("negative observation mishandled: %+v", neg)
	}
	// Empty histogram is inert.
	var empty obs.Hist
	if empty.Mean() != 0 || empty.Quantile(0.99) != 0 {
		t.Fatal("empty histogram not zero-valued")
	}
}

// TestChromeTraceWriteAndValidate round-trips the scenario through the
// trace-event writer: the validator accepts it, the event count covers every
// span plus metadata, and writing twice is byte-identical.
func TestChromeTraceWriteAndValidate(t *testing.T) {
	r := record()
	var one, two bytes.Buffer
	if err := r.WriteChromeTrace(&one); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteChromeTrace(&two); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), two.Bytes()) {
		t.Fatal("trace export is not deterministic across writes")
	}
	n, err := obs.ValidateChromeTrace(one.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if want := len(r.Spans()); n < want {
		t.Fatalf("validator saw %d events for %d spans", n, want)
	}
	for _, want := range []string{`"displayTimeUnit":"ms"`, `"ph":"M"`, `"ph":"X"`, "dev0", "yolo"} {
		if !strings.Contains(one.String(), want) {
			t.Fatalf("trace missing %q", want)
		}
	}
	// The validator rejects structurally broken documents.
	for _, bad := range []string{
		`{}`,
		`{"traceEvents":[{"ph":"X"}]}`,
		`{"traceEvents":[{"name":"e","ph":"X","pid":0,"tid":0,"ts":1}]}`,
	} {
		if _, err := obs.ValidateChromeTrace([]byte(bad)); err == nil {
			t.Fatalf("validator accepted %s", bad)
		}
	}
	// An empty recorder still writes a valid (metadata-only) document.
	var empty bytes.Buffer
	if err := obs.NewRecorder().WriteChromeTrace(&empty); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateChromeTrace(empty.Bytes()); err != nil {
		t.Fatalf("empty trace invalid: %v", err)
	}
}

// TestTimeline sanity-checks the textual strip chart: the device row shows
// load and exec glyphs over the horizon and the empty recorder renders
// nothing.
func TestTimeline(t *testing.T) {
	tl := record().Timeline(40)
	if tl == "" {
		t.Fatal("timeline empty for a populated recorder")
	}
	if !strings.Contains(tl, "dev0") {
		t.Fatalf("timeline missing device row:\n%s", tl)
	}
	if !strings.Contains(tl, "#") || !strings.Contains(tl, "L") {
		t.Fatalf("timeline missing exec/load glyphs:\n%s", tl)
	}
	if got := obs.NewRecorder().Timeline(40); got != "" {
		t.Fatalf("empty recorder rendered %q", got)
	}
}

// TestCollectDrainsPendInOrder pins the single span write path: Collect
// moves a stream's buffered spans into the global list in emission order and
// empties the buffer, so a later Collect appends only what was emitted since.
func TestCollectDrainsPendInOrder(t *testing.T) {
	r := obs.NewRecorder()
	sr := r.OpenStream("s", "d")
	sr.Exec("gpu", "m", 0, time.Millisecond, 0, 0)
	sr.Exec("gpu", "m", time.Millisecond, 2*time.Millisecond, 0, 1)
	r.Collect(sr)
	sr.Exec("gpu", "m", 2*time.Millisecond, 3*time.Millisecond, 0, 2)
	r.Collect(sr)
	r.Collect(sr)
	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans collected, want 3 (Collect must reset the buffer)", len(spans))
	}
	for i, sp := range spans {
		if sp.Frame != i {
			t.Fatalf("span %d has frame %d; collection reordered", i, sp.Frame)
		}
	}
}

// TestSpanKindStrings keeps the label set stable — trace categories and the
// registry key space both derive from it.
func TestSpanKindStrings(t *testing.T) {
	want := map[obs.SpanKind]string{
		obs.SpanArrival:      "arrival",
		obs.SpanQueueWait:    "queue-wait",
		obs.SpanLoadHit:      "load-hit",
		obs.SpanLoad:         "load",
		obs.SpanExec:         "exec",
		obs.SpanFrame:        "frame",
		obs.SpanMigration:    "migration",
		obs.SpanDrain:        "drain",
		obs.SpanBrownout:     "brownout",
		obs.SpanCrashRecover: "crash-recover",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("SpanKind %d = %q, want %q", k, k.String(), s)
		}
	}
}
