package checkpoint_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/experiments"
	"repro/internal/loader"
	"repro/internal/pipeline"
	"repro/internal/runtime"
	"repro/internal/scene"
	"repro/internal/zoo"
)

var (
	testEnv    *experiments.Env
	testFrames []scene.Frame
)

// fixture mirrors the churn conformance fixture (seed 1, scenario-2 prefix,
// 300 validation frames) so wire round-trips are exercised on the exact
// state the golden digest pins.
func fixture(t testing.TB) (*experiments.Env, []scene.Frame) {
	t.Helper()
	if testEnv == nil {
		env, err := experiments.NewEnv(1, 300)
		if err != nil {
			t.Fatal(err)
		}
		testEnv = env
		testFrames = env.Frames(scene.Scenario2())[:120]
	}
	return testEnv, testFrames
}

func shiftSession(t testing.TB, env *experiments.Env, frames []scene.Frame) (*runtime.Session, *loader.Loader) {
	t.Helper()
	sys := zoo.Default(1)
	dml := loader.New(sys, loader.EvictLRR)
	pol, err := pipeline.NewPolicy(sys, env.Ch, env.Graph, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := runtime.OpenSession(sys, dml, runtime.StreamSpec{
		Name: "wire", Frames: frames, PeriodSec: 0.1, Policy: pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sess, dml
}

// encodeAt opens a SHIFT session, steps it k frames, drains it, and encodes
// the checkpoint.
func encodeAt(t testing.TB, k int) ([]byte, []scene.Frame) {
	t.Helper()
	env, frames := fixture(t)
	sess, dml := shiftSession(t, env, frames)
	for i := 0; i < k; i++ {
		if err := sess.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := sess.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if n := dml.TotalRefs(); n != 0 {
		t.Fatalf("drained source holds %d refs", n)
	}
	b, err := checkpoint.EncodeSnapshot(snap, "scenario2", env.Seed, map[string]uint64{
		"journal_seq": uint64(k),
		"served":      uint64(snap.Served()),
	})
	if err != nil {
		t.Fatal(err)
	}
	return b, frames
}

// TestWireRoundTripResume is the wire-level half of the churn conformance
// contract: Open → Step×k → Drain → Encode → Decode → Restore on a fresh
// device → Step to end must serve every frame exactly once, with the decoded
// checkpoint reporting the same cursor and counters that went in.
func TestWireRoundTripResume(t *testing.T) {
	env, frames := fixture(t)
	for _, k := range []int{0, 1, 37, len(frames) - 1} {
		b, frames := encodeAt(t, k)
		c, err := checkpoint.Decode(b)
		if err != nil {
			t.Fatalf("k=%d: decode: %v", k, err)
		}
		if c.Session.Name != "wire" || c.Session.Next != k || c.Scenario != "scenario2" {
			t.Fatalf("k=%d: decoded identity %q next %d scenario %q", k, c.Session.Name, c.Session.Next, c.Scenario)
		}
		if c.Counters["journal_seq"] != uint64(k) {
			t.Fatalf("k=%d: counters lost: %v", k, c.Counters)
		}
		snap, err := c.Snapshot(frames)
		if err != nil {
			t.Fatal(err)
		}

		sys := zoo.Default(1)
		dml := loader.New(sys, loader.EvictLRR)
		pol, err := pipeline.NewPolicy(sys, env.Ch, env.Graph, pipeline.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var at time.Duration
		if k > 0 {
			at = snap.Timings[k-1].Done
		}
		sess, err := runtime.RestoreSession(sys, dml, snap, pol, at)
		if err != nil {
			t.Fatalf("k=%d: restore decoded checkpoint: %v", k, err)
		}
		for !sess.Done() {
			if err := sess.Step(); err != nil {
				t.Fatal(err)
			}
		}
		recs := sess.Result().Result.Records
		if len(recs) != len(frames) {
			t.Fatalf("k=%d: %d records, want %d", k, len(recs), len(frames))
		}
		for i, rec := range recs {
			if rec.Index != frames[i].Index {
				t.Fatalf("k=%d: record %d is frame %d (dropped or duplicated across the wire)", k, i, rec.Index)
			}
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		if n := dml.TotalRefs(); n != 0 {
			t.Fatalf("k=%d: resumed session leaked %d refs", k, n)
		}
	}
}

// TestEncodeDeterministic pins byte-stable encoding: the same checkpoint
// serializes identically every time (counters are sorted), so journal
// digests are reproducible.
func TestEncodeDeterministic(t *testing.T) {
	a, _ := encodeAt(t, 23)
	b, _ := encodeAt(t, 23)
	if !bytes.Equal(a, b) {
		t.Fatal("identical checkpoints encoded to different bytes")
	}
}

// TestFramesByReference pins the frame-source reference: a worker holding
// only the checkpoint bytes re-renders the exact frames the stream was
// opened with.
func TestFramesByReference(t *testing.T) {
	b, frames := encodeAt(t, 9)
	c, err := checkpoint.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Frames()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(frames) {
		t.Fatalf("re-rendered %d frames, want %d", len(got), len(frames))
	}
	for i := range got {
		if got[i].Index != frames[i].Index || !bytes.Equal(got[i].Image.Pix, frames[i].Image.Pix) {
			t.Fatalf("re-rendered frame %d differs from the original", i)
		}
	}
}

// TestDecodeTypedErrors walks the malformed-input classes the format must
// reject with its typed errors: wrong magic, future version, truncation at
// every prefix length, and CRC-breaking corruption at every byte.
func TestDecodeTypedErrors(t *testing.T) {
	valid, _ := encodeAt(t, 5)
	if _, err := checkpoint.Decode(valid); err != nil {
		t.Fatal("valid checkpoint must decode:", err)
	}

	bad := append([]byte(nil), valid...)
	bad[0] ^= 0xff
	if _, err := checkpoint.Decode(bad); !errors.Is(err, checkpoint.ErrBadMagic) {
		t.Fatalf("flipped magic: got %v, want ErrBadMagic", err)
	}

	bad = append([]byte(nil), valid...)
	bad[8] = 0xfe // version bump
	if _, err := checkpoint.Decode(bad); !errors.Is(err, checkpoint.ErrVersion) {
		t.Fatalf("future version: got %v, want ErrVersion", err)
	}

	for n := 0; n < len(valid); n++ {
		_, err := checkpoint.Decode(valid[:n])
		if err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", n)
		}
		if !errors.Is(err, checkpoint.ErrTruncated) && !errors.Is(err, checkpoint.ErrBadMagic) &&
			!errors.Is(err, checkpoint.ErrCorrupt) && !errors.Is(err, checkpoint.ErrVersion) {
			t.Fatalf("truncation to %d bytes: untyped error %v", n, err)
		}
	}

	for i := 12; i < len(valid); i += 97 {
		bad = append([]byte(nil), valid...)
		bad[i] ^= 0x40
		if _, err := checkpoint.Decode(bad); err == nil {
			// A flip inside a section payload breaks its CRC; a flip in the
			// framing breaks structure. Either way decode must not accept a
			// checkpoint whose bytes changed — except flips that only touch
			// an unknown-section id, which cannot occur in a v1 encoding's
			// section headers at these offsets unless the flip lands on the
			// id field and the CRC still matches its payload. Verify the
			// decoded result at least differs from lying about the cursor.
			c, _ := checkpoint.Decode(bad)
			orig, _ := checkpoint.Decode(valid)
			if c != nil && orig != nil && c.Session.Name == orig.Session.Name &&
				c.Session.Next == orig.Session.Next && len(c.Session.Records) == len(orig.Session.Records) {
				continue // flip landed somewhere immaterial (e.g. made a section unknown → skipped)
			}
			t.Fatalf("bit flip at %d decoded cleanly to a different checkpoint", i)
		}
	}
}

// TestDecodeRejectsCursorAheadOfRecords pins the cursor invariant: a
// session appends one record per frame it serves, so a checkpoint whose
// cursor runs ahead of its records would skip the unrecorded frames on
// restore. Cutting the last records and timings of a valid checkpoint
// leaves every section CRC-valid, and only validate can refuse it.
func TestDecodeRejectsCursorAheadOfRecords(t *testing.T) {
	b, _ := encodeAt(t, 40)
	c, err := checkpoint.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	c.Session.Records = c.Session.Records[:30]
	c.Session.Timings = c.Session.Timings[:30]
	cut, err := checkpoint.Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.Decode(cut); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("cursor 40 over 30 records: got %v, want ErrCorrupt", err)
	}
}

// TestEncodeRejectsForeignPolicyState pins the encode-time failure: a policy
// state the format does not know must fail at checkpoint time, not at a
// failed restore after a crash.
func TestEncodeRejectsForeignPolicyState(t *testing.T) {
	b, frames := encodeAt(t, 3)
	c, err := checkpoint.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot(frames)
	if err != nil {
		t.Fatal(err)
	}
	_ = snap
	c.Session.PolicyState = struct{ X int }{1}
	if _, err := checkpoint.Encode(c); err == nil {
		t.Fatal("encoding an unknown policy state type must fail")
	}
}

// TestEncodeGolden pins the wire format byte for byte: a SHIFT session
// drained mid-stream — records, timings, momentum buffers, the NCC image
// history and counters — must encode to the committed golden bytes. The
// benchmark pins only the total journal size, not the content.
func TestEncodeGolden(t *testing.T) {
	got, _ := encodeAt(t, 60)
	want, err := os.ReadFile(filepath.Join("testdata", "shift_snapshot.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		n := 0
		for n < len(got) && n < len(want) && got[n] == want[n] {
			n++
		}
		t.Fatalf("encoding differs from the golden at byte %d (%d bytes, golden %d)", n, len(got), len(want))
	}
	// The fixture must exercise every section kind the golden is meant to pin.
	c, err := checkpoint.Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := c.Session.PolicyState.(*pipeline.State)
	if !ok {
		t.Fatalf("golden policy state is %T, want *pipeline.State", c.Session.PolicyState)
	}
	d := st.Sched
	momentum := 0
	for _, buf := range d.Bufs {
		momentum += len(buf)
	}
	if d.LastImg == nil || d.LastBox == nil || momentum == 0 || len(c.Counters) != 2 || len(c.Session.Records) != 60 {
		t.Fatalf("golden lacks coverage: images %v/%v, %d momentum entries, %d counters, %d records",
			d.LastImg != nil, d.LastBox != nil, momentum, len(c.Counters), len(c.Session.Records))
	}
}

// TestEncodedSizeExact pins Encode's presize to the bytes it writes, across
// stream positions, with and without counters and portable policy state.
func TestEncodedSizeExact(t *testing.T) {
	for _, k := range []int{0, 1, 37, 119} {
		b, _ := encodeAt(t, k)
		c, err := checkpoint.Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		for _, strip := range []bool{false, true} {
			if strip {
				c.Counters, c.Session.PolicyState = nil, nil
			}
			out, err := checkpoint.Encode(c)
			if err != nil {
				t.Fatal(err)
			}
			if n := checkpoint.EncodedSize(c); n != len(out) {
				t.Fatalf("k=%d stripped=%v: presized %d bytes, encoded %d", k, strip, n, len(out))
			}
		}
	}
}
