//go:build !race

package checkpoint_test

import (
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/runtime"
)

// withRecords returns a copy of c whose stream holds n records and
// timings, cycling through c's own.
func withRecords(c *checkpoint.Checkpoint, n int) *checkpoint.Checkpoint {
	d := *c.Session
	d.Records = make([]runtime.FrameRecord, n)
	d.Timings = make([]runtime.FrameTiming, n)
	for i := range d.Records {
		d.Records[i] = c.Session.Records[i%len(c.Session.Records)]
		d.Timings[i] = c.Session.Timings[i%len(c.Session.Timings)]
	}
	out := *c
	out.Session = &d
	return &out
}

// TestEncodeAllocationsIndependentOfLength: Encode writes into one presized
// buffer, so a 200-record stream costs the same number of allocations as a
// 10-record one.
func TestEncodeAllocationsIndependentOfLength(t *testing.T) {
	b, _ := encodeAt(t, 10)
	c, err := checkpoint.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(c *checkpoint.Checkpoint) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := checkpoint.Encode(c); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(withRecords(c, 10)), allocs(withRecords(c, 200))
	if short != long {
		t.Fatalf("Encode allocates %v times at 10 records but %v at 200", short, long)
	}
}

// TestJournalWriteAllocations gates one fleet journal write — Session.Snapshot
// plus EncodeSnapshot with the fleet's two counters — at the 60-frame
// fixture, so the snapshot and codec cannot quietly gain allocations.
func TestJournalWriteAllocations(t *testing.T) {
	const maxSnapshot, maxEncode = 20, 2 // the counts measured with Go 1.24
	env, frames := fixture(t)
	sess, _ := shiftSession(t, env, frames)
	defer sess.Close()
	for i := 0; i < 60; i++ {
		if err := sess.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := testing.AllocsPerRun(20, func() { sess.Snapshot() })
	snap := sess.Snapshot()
	encode := testing.AllocsPerRun(20, func() {
		if _, err := checkpoint.EncodeSnapshot(snap, "scenario2", env.Seed, map[string]uint64{
			"journal_seq": 60,
			"served":      uint64(snap.Served()),
		}); err != nil {
			t.Fatal(err)
		}
	})
	if snapshot > maxSnapshot || encode > maxEncode {
		t.Fatalf("one journal write allocates %v (snapshot) + %v (encode) times, want <= %d + %d",
			snapshot, encode, maxSnapshot, maxEncode)
	}
}
