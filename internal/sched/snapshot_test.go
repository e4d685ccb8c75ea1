package sched

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/detmodel"
	"repro/internal/scene"
	"repro/internal/zoo"
)

// decided is one decision with the momentum averages read right after it —
// present only when the decision re-scheduled.
type decided struct {
	Decision
	Predicted map[string]float64
}

// decideWith runs one Decide and captures its momentum averages.
func decideWith(s *Scheduler, cur zoo.Pair, det detmodel.Detection, frame scene.Frame) decided {
	d := decided{Decision: s.Decide(cur, det, frame)}
	if d.Rescheduled {
		d.Predicted = s.Predicted()
	}
	return d
}

// decideSeq runs the scheduler over frames, feeding each decision's pair back
// as the next frame's current pair, and returns the decisions.
func decideSeq(t *testing.T, s *Scheduler, frames []scene.Frame) []decided {
	t.Helper()
	f := fx(t)
	cur := pairFor(t, s, "YoloV7", accel.KindGPU)
	out := make([]decided, 0, len(frames))
	for _, frame := range frames {
		det := detect(t, f, cur.Model, frame)
		dec := decideWith(s, cur, det, frame)
		out = append(out, dec)
		cur = dec.Pair
	}
	return out
}

// TestSnapshotRestoreMatchesUninterrupted pins the migration contract: running
// k frames, snapshotting, restoring into a *fresh* scheduler over the same
// zoo, and continuing yields exactly the decisions of the uninterrupted run —
// momentum buffers, NCC history and crop phase all carry across.
func TestSnapshotRestoreMatchesUninterrupted(t *testing.T) {
	frames := make([]scene.Frame, 0, 40)
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			frames = append(frames, hardFrame(i))
		} else {
			frames = append(frames, easyFrame(i))
		}
	}
	for _, k := range []int{0, 1, 7, 20, 39} {
		ref := newSched(t, DefaultConfig())
		want := decideSeq(t, ref, frames)

		a := newSched(t, DefaultConfig())
		got := decideSeq(t, a, frames[:k])
		b := newSched(t, DefaultConfig())
		b.Restore(a.Snapshot())
		// Resume from the pair the interrupted run would use next.
		cur := pairFor(t, b, "YoloV7", accel.KindGPU)
		if k > 0 {
			cur = got[k-1].Pair
		}
		f := fx(t)
		for _, frame := range frames[k:] {
			det := detect(t, f, cur.Model, frame)
			dec := decideWith(b, cur, det, frame)
			got = append(got, dec)
			cur = dec.Pair
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d decisions vs %d", k, len(got), len(want))
		}
		for i := range want {
			if !decisionsEqual(got[i], want[i]) {
				t.Fatalf("k=%d: decision %d differs:\ngot  %+v\nwant %+v", k, i, got[i], want[i])
			}
		}
	}
}

// TestSnapshotIsolatedFromSource: mutating the source scheduler after a
// snapshot must not perturb what a later Restore sees (the box crop aliases a
// scratch buffer the live scheduler rewrites).
func TestSnapshotIsolatedFromSource(t *testing.T) {
	frames := []scene.Frame{hardFrame(0), hardFrame(1), easyFrame(2), hardFrame(3)}
	a := newSched(t, DefaultConfig())
	decideSeq(t, a, frames[:2])
	snap := a.Snapshot()
	wantBox := snap.LastBox
	var wantPix []uint8
	if wantBox != nil {
		wantPix = append([]uint8(nil), wantBox.Pix...)
	}
	// Keep stepping the source: its crop buffers get rewritten.
	decideSeq(t, a, frames[2:])
	if wantBox != nil {
		for i := range wantPix {
			if wantBox.Pix[i] != wantPix[i] {
				t.Fatal("snapshot box crop mutated by the live scheduler")
			}
		}
	}
	b := newSched(t, DefaultConfig())
	b.Restore(snap)
	if b.lastBox != nil && a.lastBox == b.lastBox {
		t.Fatal("restored scheduler shares the live scheduler's crop buffer")
	}
}

// decisionsEqual compares all decision fields, including the momentum map.
func decisionsEqual(a, b decided) bool {
	if a.Pair != b.Pair || a.Rescheduled != b.Rescheduled ||
		a.Similarity != b.Similarity || a.Gate != b.Gate ||
		a.MetThreshold != b.MetThreshold || len(a.Predicted) != len(b.Predicted) {
		return false
	}
	for k, v := range a.Predicted {
		if bv, ok := b.Predicted[k]; !ok || bv != v {
			return false
		}
	}
	return true
}
