package runtime

import (
	"errors"
	"testing"

	"repro/internal/detmodel"
	"repro/internal/loader"
	"repro/internal/zoo"
)

// TestSessionDrain pins the drain hook the fleet's displacement and
// autoscaler paths share: Drain checkpoints the session, releases its
// residency holds (the loader ends refs-clean), closes it, and the returned
// snapshot restores into a session that serves the remaining frames — while
// a second Drain idempotently returns the same fork point.
func TestSessionDrain(t *testing.T) {
	sys := zoo.Default(1)
	dml := loader.New(sys, loader.EvictLRR)
	frames := testFrames(t)[:20]
	pol := &fixedPolicy{pair: testPair(t, sys, detmodel.YoloV7, "gpu")}
	sess, err := OpenSession(sys, dml, StreamSpec{
		Name: "s", Frames: frames, PeriodSec: 0.1, Policy: pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := sess.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := sess.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Served() != 8 || snap.Remaining() != 12 {
		t.Fatalf("snapshot served %d remaining %d, want 8/12", snap.Served(), snap.Remaining())
	}
	if n := dml.TotalRefs(); n != 0 {
		t.Fatalf("drained session left %d residency refs", n)
	}
	again, err := sess.Drain()
	if err != nil {
		t.Fatal("double-Drain must return cleanly:", err)
	}
	if again != snap {
		t.Fatal("double-Drain must return the cached first checkpoint, not a fresh fork point")
	}
	if err := sess.Close(); err != nil {
		t.Fatal("Close stays idempotent after Drain:", err)
	}

	// The checkpoint resumes on a fresh device and serves the tail.
	sys2 := zoo.Default(1)
	dml2 := loader.New(sys2, loader.EvictLRR)
	restored, err := RestoreSession(sys2, dml2, snap,
		&fixedPolicy{pair: testPair(t, sys2, detmodel.YoloV7, "gpu")}, snap.Timings[7].Done)
	if err != nil {
		t.Fatal(err)
	}
	for !restored.Done() {
		if err := restored.Step(); err != nil {
			t.Fatal(err)
		}
	}
	res := restored.Result()
	if got := len(res.Result.Records); got != len(frames) {
		t.Fatalf("restored session served %d records, want %d", got, len(frames))
	}
	for i, rec := range res.Result.Records {
		if rec.Index != frames[i].Index {
			t.Fatalf("record %d has frame index %d (dropped or duplicated across drain)", i, rec.Index)
		}
	}
	if err := restored.Close(); err != nil {
		t.Fatal(err)
	}
	if n := dml2.TotalRefs(); n != 0 {
		t.Fatalf("restored session leaked %d refs", n)
	}
}

// TestSessionDrainJustOpened pins draining a session that never stepped: the
// fault paths can displace a stream the same instant it was admitted, and the
// zero-frame checkpoint must come back clean (no records, refs at zero) and
// still resume into a session that serves the whole stream.
func TestSessionDrainJustOpened(t *testing.T) {
	sys := zoo.Default(1)
	dml := loader.New(sys, loader.EvictLRR)
	frames := testFrames(t)[:10]
	sess, err := OpenSession(sys, dml, StreamSpec{
		Name: "fresh", Frames: frames, PeriodSec: 0.1,
		Policy: &fixedPolicy{pair: testPair(t, sys, detmodel.YoloV7, "gpu")},
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sess.Drain()
	if err != nil {
		t.Fatal("draining a just-opened session must return cleanly:", err)
	}
	if snap.Served() != 0 || snap.Remaining() != len(frames) {
		t.Fatalf("zero-frame snapshot served %d remaining %d, want 0/%d",
			snap.Served(), snap.Remaining(), len(frames))
	}
	if n := dml.TotalRefs(); n != 0 {
		t.Fatalf("just-opened drain left %d residency refs", n)
	}
	if again, err := sess.Drain(); err != nil || again != snap {
		t.Fatalf("double-Drain on just-opened session: snap %p/%p err %v", again, snap, err)
	}

	restored, err := RestoreSession(sys, dml, snap,
		&fixedPolicy{pair: testPair(t, sys, detmodel.YoloV7, "gpu")}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for !restored.Done() {
		if err := restored.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(restored.Result().Result.Records); got != len(frames) {
		t.Fatalf("restored zero-frame checkpoint served %d records, want %d", got, len(frames))
	}
	if err := restored.Close(); err != nil {
		t.Fatal(err)
	}
	if n := dml.TotalRefs(); n != 0 {
		t.Fatalf("restore from zero-frame checkpoint leaked %d refs", n)
	}
}

// TestRestoreUnknownModel pins the up-front zoo validation: a checkpoint
// naming a model the target zoo does not carry (here via a renamed held
// engine) fails RestoreSession with ErrUnknownModel before any platform
// charge, rather than deep inside the first Step.
func TestRestoreUnknownModel(t *testing.T) {
	sys := zoo.Default(1)
	dml := loader.New(sys, loader.EvictLRR)
	frames := testFrames(t)[:10]
	sess, err := OpenSession(sys, dml, StreamSpec{
		Name: "renamed", Frames: frames, PeriodSec: 0.1,
		Policy: &fixedPolicy{pair: testPair(t, sys, detmodel.YoloV7, "gpu")},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := sess.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := sess.Drain()
	if err != nil {
		t.Fatal(err)
	}

	// Copy the checkpoint with the held engine renamed to a model no zoo
	// carries — what a checkpoint from a foreign or newer fleet would look
	// like.
	if !snap.HaveHeld {
		t.Fatal("drained session should hold its serving engine")
	}
	bad := *snap
	bad.Held.Model = "yolo-v99-renamed"
	_, err = RestoreSession(sys, dml, &bad,
		&fixedPolicy{pair: testPair(t, sys, detmodel.YoloV7, "gpu")}, 0)
	if !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("restore with renamed model: got %v, want ErrUnknownModel", err)
	}
	if n := dml.TotalRefs(); n != 0 {
		t.Fatalf("failed restore leaked %d refs", n)
	}
}
