package fleet

import (
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/detmodel"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/runtime"
	"repro/internal/zoo"
)

// cyclePolicy serves fixed-length blocks of frames from a rotating model
// list: frames [0,block) on models[0], [block,2·block) on models[1], and so
// on. Block boundaries are deterministic swaps, and within a block the
// predictor has a whole block of compute to overlap the next load — the
// shape that turns every steady-state swap into a prefetch hit.
type cyclePolicy struct {
	models []string
	proc   string
	block  int
	phase  int
	i      int
	pairs  []zoo.Pair
}

func (p *cyclePolicy) Name() string { return "cycle" }
func (p *cyclePolicy) Reset(e *runtime.Engine) error {
	p.pairs = make([]zoo.Pair, len(p.models))
	for i, m := range p.models {
		for _, rp := range e.System().RuntimePairs() {
			if rp.Model == m && rp.ProcID == p.proc {
				p.pairs[i] = rp
			}
		}
	}
	p.i = 0
	return nil
}
func (p *cyclePolicy) Step(st *runtime.Step) error {
	want := p.pairs[((p.phase+p.i)/p.block)%len(p.pairs)]
	p.i++
	pair, err := st.Acquire(want)
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

// prefetchCell serves a miss-heavy two-device cell with the predictor on: a
// 1100 MB pool fits any two of {YoloV7 600, SSD-MobilenetV1 150,
// SSD-Resnet50 400} but never all three, so block-cycling streams swap at
// every block boundary forever.
func prefetchCell(t *testing.T, rec *obs.Recorder, pf *predict.Config) *Result {
	t.Helper()
	frames := testFrames(t)[:108]
	newSystem := func(seed uint64) *zoo.System {
		sys := zoo.Default(seed)
		sys.SoC.Pools[accel.SoCPoolName] = accel.NewMemPool(accel.SoCPoolName, 1100*accel.MB)
		return sys
	}
	fl, err := New(Config{
		Seed: 7,
		Devices: []DeviceConfig{
			{Name: "edge-a"},
			{Name: "edge-b"},
		},
		Placement: NewResidencyAffinity(),
		Admission: Admission{PerDeviceStreams: 2, QueueLimit: 2},
		NewSystem: newSystem,
		Recorder:  rec,
		Prefetch:  pf,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]StreamRequest, 4)
	for i := range reqs {
		phase := i
		reqs[i] = StreamRequest{
			Name:      "cam" + string(rune('0'+i)),
			Scenario:  "scenario2",
			Arrival:   time.Duration(i) * 50 * time.Millisecond,
			Frames:    frames,
			PeriodSec: 0.1,
			Policy: func(*zoo.System) (runtime.Policy, error) {
				return &cyclePolicy{
					models: []string{detmodel.YoloV7, detmodel.SSDMobilenetV1, detmodel.SSDResnet50},
					proc:   "gpu",
					block:  12,
					phase:  phase,
				}, nil
			},
		}
	}
	res, err := fl.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != len(reqs) {
		t.Fatalf("served %d of %d streams", res.Served, len(reqs))
	}
	for _, d := range fl.Devices() {
		if n := d.DML.TotalRefs(); n != 0 {
			t.Fatalf("device %s leaked %d residency refs", d.Name, n)
		}
	}
	return res
}

// checkPrefetchSpans pins the attribution contract on a prefetch-on span
// stream: every frame span's latency decomposition sums bit-exactly, and a
// frame served through a prefetch hit carries a zero Swap component — the
// stall the prediction hid is really gone, not reattributed.
func checkPrefetchSpans(t *testing.T, spans []obs.Span) (hits int) {
	t.Helper()
	type frameKey struct {
		stream string
		frame  int
	}
	hit := map[frameKey]bool{}
	for _, sp := range spans {
		if sp.Kind == obs.SpanPrefetchHit {
			hit[frameKey{sp.Stream, sp.Frame}] = true
			hits++
		}
	}
	for i, sp := range spans {
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
		if hit[frameKey{sp.Stream, sp.Frame}] && sp.Swap != 0 {
			t.Fatalf("span %d (%s frame %d): prefetch-hit frame charged %v of swap stall",
				i, sp.Stream, sp.Frame, sp.Swap)
		}
	}
	return hits
}

// TestFleetPrefetchHitFramesHaveZeroSwap runs the miss-heavy cell with the
// predictor on and pins the fleet-level prefetch properties: the run
// actually produces full prefetch hits (the suite is not vacuous), hit
// frames pay zero swap stall, every frame decomposition sums bit-exactly,
// and the run is deterministic — an identical repeat reproduces results,
// spans and the predictor scorecard bit-for-bit.
func TestFleetPrefetchHitFramesHaveZeroSwap(t *testing.T) {
	pf := predict.DefaultConfig()
	rec := obs.NewRecorder()
	a := prefetchCell(t, rec, &pf)
	if a.Prefetch.Swaps == 0 {
		t.Fatal("cell produced no swaps; the prefetch suite is vacuous")
	}
	if a.Prefetch.FullHits == 0 {
		t.Fatalf("cell produced no full prefetch hits: %+v", a.Prefetch)
	}
	hits := checkPrefetchSpans(t, rec.Spans())
	if hits == 0 {
		t.Fatal("recorder saw no prefetch-hit spans")
	}
	if hits != a.Prefetch.FullHits {
		t.Fatalf("recorder saw %d prefetch-hit spans, scorecard says %d full hits",
			hits, a.Prefetch.FullHits)
	}

	// Identical repeat: results, spans and scorecard must reproduce exactly.
	rec2 := obs.NewRecorder()
	b := prefetchCell(t, rec2, &pf)
	compareRuns(t, a, b, "prefetch-repeat")
	if a.Prefetch != b.Prefetch {
		t.Fatalf("predictor scorecard not deterministic: %+v vs %+v", a.Prefetch, b.Prefetch)
	}
	sa, sb := rec.Spans(), rec2.Spans()
	if len(sa) != len(sb) {
		t.Fatalf("span counts diverge across repeats: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("span %d diverges across repeats:\n%+v\n%+v", i, sa[i], sb[i])
		}
	}
}
