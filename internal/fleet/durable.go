package fleet

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/checkpoint"
)

// DurabilityConfig enables the durable checkpoint journal — the in-process
// model of the coordinator's crash-recovery store (internal/distrib runs the
// same protocol across real processes). When set, the fleet serializes every
// admitted stream's checkpoint through the versioned wire format
// (internal/checkpoint) at admission and again every EveryFrames served
// frames. The journal is the only state a crash fault preserves: frames
// served after the last journal entry are lost with the process and replayed
// after recovery.
//
// Durability is required for FaultCrash schedules and changes nothing else:
// a fleet with Durability set but no crash faults produces bit-identical
// results to one without (journaling only reads session state).
type DurabilityConfig struct {
	// EveryFrames is the journal cadence in served frames per stream
	// (<= 0: default 10). Smaller means less replay after a crash and more
	// journal bytes.
	EveryFrames int
	// RenderSeed is recorded in each checkpoint's frame-source reference so
	// an out-of-process consumer can re-render the stream's frames; the
	// in-process recovery path re-supplies frames directly and ignores it.
	RenderSeed uint64
}

// defaultJournalEvery is the journal cadence when the config leaves it zero.
const defaultJournalEvery = 10

func (dc *DurabilityConfig) every() int {
	if dc.EveryFrames <= 0 {
		return defaultJournalEvery
	}
	return dc.EveryFrames
}

// journalEntry is one stream's latest durable checkpoint: the encoded wire
// bytes (exactly what a coordinator would have on disk) and the served count
// they pin.
type journalEntry struct {
	data   []byte
	served int
}

// writeJournal serializes the stream's current checkpoint through the wire
// format and replaces its journal entry. Encoding exercises the same bytes a
// real coordinator would persist, so journal size metrics are honest.
func (f *Fleet) writeJournal(as *activeSession) error {
	snap := as.sess.Snapshot()
	// Snapshot is a read barrier on the session: refresh the cached event
	// view (and heap slot), per the cache invariant.
	as.refresh()
	f.retrack(as)
	f.journalSeq++
	data, err := checkpoint.EncodeSnapshot(snap, as.req.Scenario, f.durable.RenderSeed, map[string]uint64{
		"journal_seq": f.journalSeq,
		"served":      uint64(snap.Served()),
	})
	if err != nil {
		return fmt.Errorf("fleet: journal %s: %w", as.out.Name, err)
	}
	f.journalStore[as.out] = &journalEntry{data: data, served: snap.Served()}
	f.journalWrites++
	f.journalBytes += int64(len(data))
	return nil
}

// observeDurable advances the per-stream journal cadence after a served
// frame and writes a checkpoint when it comes due.
func (f *Fleet) observeDurable(as *activeSession) error {
	if f.durable == nil {
		return nil
	}
	as.sinceJournal++
	if as.sinceJournal < f.durable.every() {
		return nil
	}
	as.sinceJournal = 0
	return f.writeJournal(as)
}

// journalOnAdmit seeds a just-placed stream's journal entry, so a crash can
// never catch a stream with no durable checkpoint at all.
func (f *Fleet) journalOnAdmit(as *activeSession) error {
	if f.durable == nil {
		return nil
	}
	return f.writeJournal(as)
}

// crash models a worker process dying under a stream load — kill -9, OOM, a
// rolling restart's hard phase. Unlike an outage, nothing live survives: the
// sessions' in-memory state is gone (no drain snapshot), residency is wiped
// (loader.Flush), and every displaced stream resumes from its last journaled
// checkpoint, replaying the frames served since. Premium streams re-queue
// first; best-effort streams are shed outright when the surviving fleet has
// fewer free admission slots than displaced streams — graceful degradation
// instead of an unbounded premium queue.
func (f *Fleet) crash(d *Device, at time.Duration, queue *[]*pending) error {
	d.crashes++
	f.crashes++
	moved := make([]*pending, 0, len(d.sessions))
	for _, as := range d.sessions {
		f.untrack(as)
		entry := f.journalStore[as.out]
		if entry == nil {
			return fmt.Errorf("fleet: crash on %s: stream %s has no journaled checkpoint", d.Name, as.out.Name)
		}
		liveServed := len(as.sess.Result().Result.Records)
		// The process died: closing the session models the OS reclaiming its
		// references; its un-journaled progress is not checkpointed.
		if err := as.sess.Close(); err != nil {
			return fmt.Errorf("fleet: crash on %s: close %s: %w", d.Name, as.out.Name, err)
		}
		c, err := checkpoint.Decode(entry.data)
		if err != nil {
			return fmt.Errorf("fleet: crash on %s: journal for %s: %w", d.Name, as.out.Name, err)
		}
		snap, err := c.Snapshot(as.req.Frames)
		if err != nil {
			return fmt.Errorf("fleet: crash on %s: rebuild %s: %w", d.Name, as.out.Name, err)
		}
		// The device is credited only with the frames the journal preserved;
		// the remainder is lost work, metered as replay.
		d.frames += snap.Served() - as.prevRecords
		if h := as.sess.Horizon(); h > d.horizon {
			d.horizon = h
		}
		lost := liveServed - snap.Served()
		as.out.ReplayedFrames += lost
		f.replayedFrames += lost
		d.displaced++
		f.teach(as.out.Scenario, snap.Records)
		moved = append(moved, &pending{out: as.out, req: as.req, snap: snap, since: at, crashed: true})
	}
	d.sessions = d.sessions[:0]
	if err := d.DML.Flush(); err != nil {
		return fmt.Errorf("fleet: crash on %s: %w", d.Name, err)
	}

	// Premium ahead of best-effort (stable within each class, preserving
	// admission order); then shed best-effort streams from the tail while
	// the displaced set exceeds the surviving fleet's free slots.
	sort.SliceStable(moved, func(i, j int) bool {
		return !moved[i].req.BestEffort && moved[j].req.BestEffort
	})
	if f.adm.PerDeviceStreams > 0 {
		slack := 0
		for _, c := range f.candidates() {
			slack += f.adm.PerDeviceStreams - len(c.sessions)
		}
		for len(moved) > slack && moved[len(moved)-1].req.BestEffort {
			p := moved[len(moved)-1]
			moved = moved[:len(moved)-1]
			p.out.Shed = true
			p.out.Stream = p.snap.Partial()
			delete(f.journalStore, p.out)
			if f.rec != nil {
				f.rec.Shed()
			}
		}
	}
	requeue(queue, moved)
	return nil
}
