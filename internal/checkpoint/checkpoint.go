// Package checkpoint defines the durable wire format for serving-session
// checkpoints: the self-describing byte encoding a coordinator journals to
// survive worker crashes and ships across process boundaries to migrate
// streams (internal/distrib).
//
// Layout (all integers little-endian):
//
//	magic   [8]byte  "SHFTCKPT"
//	version uint32   (currently 1)
//	section*         repeated until end of input:
//	    id      uint32
//	    length  uint32
//	    payload [length]byte
//	    crc     uint32   IEEE CRC-32 of payload
//
// Sections carry the stream identity and cursor (including the frame source
// by reference — scenario name, render seed, frame count — since scenarios
// re-render deterministically and inlining pixels would dwarf the
// checkpoint), the served records and timings, the portable policy state,
// the residency manifest, and free-form metrics counters. Unknown section
// ids are skipped so minor additive fields do not bump the version; layout
// changes do. The codec reads and writes the snapshot types themselves:
// runtime.SessionSnapshot, pipeline.State and sched.State.
//
// Decode is total: any corrupt, truncated or future-version input returns a
// typed error (ErrBadMagic, ErrVersion, ErrTruncated, ErrCorrupt) and never
// panics. Decoding allocates nothing the input's own length does not justify
// and takes no residency references — refs appear only when the rebuilt
// snapshot is restored, and the restore path releases them on failure.
//
// Encoding is deterministic: the same checkpoint always serializes to the
// same bytes (counters are sorted), so journal digests are stable.
package checkpoint

import (
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/pipeline"
	"repro/internal/runtime"
	"repro/internal/scene"
	"repro/internal/sched"
)

// magic opens every checkpoint; version gates the layout.
const (
	magic   = "SHFTCKPT"
	version = 1
)

// Section ids. New sections append; reusing an id is a version bump.
const (
	secStream    = 1
	secRecords   = 2
	secTimings   = 3
	secPolicy    = 4
	secResidency = 5
	secCounters  = 6
)

// Policy-state kinds within secPolicy.
const (
	policyNone  = 0 // non-portable policy: restore re-learns via Reset
	policyShift = 1 // pipeline.State: scheduler decision state + active pair
)

// Typed decode errors. Decode wraps them with context; match with errors.Is.
var (
	ErrBadMagic  = errors.New("checkpoint: bad magic")
	ErrVersion   = errors.New("checkpoint: unsupported version")
	ErrTruncated = errors.New("checkpoint: truncated input")
	ErrCorrupt   = errors.New("checkpoint: corrupt input")
)

// Checkpoint is the decoded form: the session snapshot plus the frame
// source by reference and the journal's metrics counters.
type Checkpoint struct {
	// Session is the stream's checkpoint without its frames; Snapshot
	// attaches them.
	Session *runtime.SessionSnapshot
	// Scenario, RenderSeed and FrameCount name the frame source: the
	// stream's frames are the first FrameCount frames of Scenario rendered
	// with RenderSeed.
	Scenario   string
	RenderSeed uint64
	FrameCount int
	// Counters carries journal metadata (sequence numbers, replay counts);
	// the format does not interpret them.
	Counters map[string]uint64
}

// Frames re-renders the checkpoint's frame source. Workers use it when the
// coordinator hands them a checkpoint and nothing else; in-process callers
// that already hold the rendered scenario can skip it and pass their slice
// to Snapshot directly.
func (c *Checkpoint) Frames() ([]scene.Frame, error) {
	s, err := scene.ByName(c.Scenario)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: stream %q: %w", c.Session.Name, err)
	}
	frames := s.Render(c.RenderSeed)
	if len(frames) < c.FrameCount {
		return nil, fmt.Errorf("checkpoint: stream %q needs %d frames, scenario %q renders %d",
			c.Session.Name, c.FrameCount, c.Scenario, len(frames))
	}
	return frames[:c.FrameCount], nil
}

// Snapshot attaches the re-supplied frames to the checkpoint's session and
// returns it, ready for runtime.RestoreSession. The cursor must be consistent
// with the frame count; the caller picks the policy when it restores.
func (c *Checkpoint) Snapshot(frames []scene.Frame) (*runtime.SessionSnapshot, error) {
	sn := c.Session
	if len(frames) != c.FrameCount {
		return nil, fmt.Errorf("checkpoint: stream %q expects %d frames, resupplied %d",
			sn.Name, c.FrameCount, len(frames))
	}
	if sn.Next < 0 || sn.Next > c.FrameCount {
		return nil, fmt.Errorf("checkpoint: stream %q cursor %d outside 0..%d",
			sn.Name, sn.Next, c.FrameCount)
	}
	if len(sn.Records) != len(sn.Timings) {
		return nil, fmt.Errorf("checkpoint: stream %q has %d records but %d timings",
			sn.Name, len(sn.Records), len(sn.Timings))
	}
	sn.SetFrames(frames)
	return sn, nil
}

// EncodeSnapshot serializes a live session checkpoint: the common case where
// the caller holds a *runtime.SessionSnapshot and the stream's frame-source
// reference.
func EncodeSnapshot(snap *runtime.SessionSnapshot, scenario string, renderSeed uint64, counters map[string]uint64) ([]byte, error) {
	return Encode(&Checkpoint{
		Session:    snap,
		Scenario:   scenario,
		RenderSeed: renderSeed,
		// Served and remaining frames add up to the stream's length.
		FrameCount: snap.Next + snap.Remaining(),
		Counters:   counters,
	})
}

// Encode serializes a checkpoint. It fails on state the format cannot carry
// (an unrecognized portable-policy type) rather than dropping it silently.
func Encode(c *Checkpoint) ([]byte, error) {
	if c.Session == nil {
		return nil, fmt.Errorf("checkpoint: encode with no session")
	}
	d := c.Session
	if len(d.Records) != len(d.Timings) {
		return nil, fmt.Errorf("checkpoint: stream %q has %d records but %d timings",
			d.Name, len(d.Records), len(d.Timings))
	}

	names := make([]string, 0, len(c.Counters))
	for name := range c.Counters {
		names = append(names, name)
	}
	slices.Sort(names)

	p := writer{buf: make([]byte, 0, encodedSize(c))}
	p.buf = append(p.buf, magic...)
	p.u32(version)

	sec := p.open(secStream)
	p.str(d.Name)
	p.str(d.PolicyName)
	p.f64(d.PeriodSec)
	p.i64(int64(c.FrameCount))
	p.i64(int64(d.Next))
	p.i64(int64(d.Base))
	p.i64(int64(d.Done))
	p.i64(int64(d.Deadline))
	p.pair(d.Prev)
	p.str(c.Scenario)
	p.u64(c.RenderSeed)
	p.close(sec)

	sec = p.open(secRecords)
	p.i64(int64(len(d.Records)))
	for _, r := range d.Records {
		p.i64(int64(r.Index))
		p.pair(r.Pair)
		p.bool(r.Found)
		p.f64(r.Conf)
		p.f64(r.IoU)
		p.f64(r.Box.X)
		p.f64(r.Box.Y)
		p.f64(r.Box.W)
		p.f64(r.Box.H)
		p.f64(r.LatSec)
		p.f64(r.EnergyJ)
		p.bool(r.Swapped)
		p.bool(r.LoadedModel)
		p.bool(r.Rescheduled)
		p.f64(r.Similarity)
		p.f64(r.Gate)
	}
	p.close(sec)

	sec = p.open(secTimings)
	p.i64(int64(len(d.Timings)))
	for _, t := range d.Timings {
		p.i64(int64(t.Arrival))
		p.i64(int64(t.Start))
		p.i64(int64(t.Done))
		p.i64(int64(t.Wait))
		p.i64(int64(t.Deadline))
	}
	p.close(sec)

	sec = p.open(secPolicy)
	if err := encodePolicy(&p, d.PolicyState); err != nil {
		return nil, err
	}
	p.close(sec)

	sec = p.open(secResidency)
	p.bool(d.HaveHeld)
	p.pair(d.Held)
	p.close(sec)

	sec = p.open(secCounters)
	p.i64(int64(len(names)))
	for _, name := range names {
		p.str(name)
		p.u64(c.Counters[name])
	}
	p.close(sec)

	return p.buf, nil
}

// encodedSize returns the exact length Encode produces for c, so the output
// is written into one buffer that never grows.
func encodedSize(c *Checkpoint) int {
	const (
		framing = 12 // section id, length and CRC
		record  = 8 + 1 + 8*8 + 3 + 2*8
		timing  = 5 * 8
	)
	d := c.Session
	n := len(magic) + 4 + 6*framing
	n += strSize(d.Name) + strSize(d.PolicyName) + 6*8 + pairSize(d.Prev) + strSize(c.Scenario) + 8
	n += 8 + len(d.Records)*record
	for _, r := range d.Records {
		n += pairSize(r.Pair)
	}
	n += 8 + len(d.Timings)*timing
	n++ // policy kind
	if st, ok := d.PolicyState.(*pipeline.State); ok {
		n += pairSize(st.Cur) + schedStateSize(st.Sched)
	}
	n += 1 + pairSize(d.Held)
	n += 8
	for name := range c.Counters {
		n += strSize(name) + 8
	}
	return n
}

func schedStateSize(d *sched.State) int {
	n := 8
	for _, model := range d.Models {
		n += strSize(model) + 8 + 8 + 2
	}
	for _, buf := range d.Bufs {
		n += 8 * len(buf)
	}
	return n + imageSize(d.LastImg) + imageSize(d.LastBox) + 5*8
}

// Decode parses a serialized checkpoint. The input is untrusted: every read
// is bounds-checked, every section CRC-verified, and failures return typed
// errors — never a panic, never an oversized allocation.
func Decode(b []byte) (*Checkpoint, error) {
	if len(b) < len(magic)+4 {
		return nil, fmt.Errorf("%w: %d-byte header", ErrTruncated, len(b))
	}
	if string(b[:len(magic)]) != magic {
		return nil, ErrBadMagic
	}
	r := reader{b: b, off: len(magic), truncErr: ErrTruncated}
	if v := r.u32(); v != version {
		return nil, fmt.Errorf("%w: version %d, this build reads %d", ErrVersion, v, version)
	}

	c := &Checkpoint{Session: &runtime.SessionSnapshot{}, Counters: map[string]uint64{}}
	seen := map[uint32]bool{}
	var haveStream bool
	for r.remaining() > 0 && r.err == nil {
		id := r.u32()
		payload := r.block()
		crc := r.u32()
		if r.err != nil {
			break
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return nil, fmt.Errorf("%w: section %d fails CRC", ErrCorrupt, id)
		}
		if seen[id] {
			return nil, fmt.Errorf("%w: duplicate section %d", ErrCorrupt, id)
		}
		seen[id] = true
		// Sub-reads past a CRC-valid payload's end mean a malformed
		// encoding, not a short input.
		p := reader{b: payload, truncErr: ErrCorrupt}
		var err error
		switch id {
		case secStream:
			err = decodeStream(&p, c)
			haveStream = err == nil
		case secRecords:
			err = decodeRecords(&p, c.Session)
		case secTimings:
			err = decodeTimings(&p, c.Session)
		case secPolicy:
			err = decodePolicy(&p, c.Session)
		case secResidency:
			c.Session.HaveHeld = p.bool()
			c.Session.Held = p.pair()
			err = p.close(id)
		case secCounters:
			err = decodeCounters(&p, c)
		default:
			// Unknown section: an additive field from a newer minor
			// revision. The CRC already vouched for it; skip.
		}
		if err != nil {
			return nil, err
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if !haveStream {
		return nil, fmt.Errorf("%w: no stream section", ErrCorrupt)
	}
	// Every v1 section is mandatory: a checkpoint cut at a section boundary
	// has intact framing, and only this census catches it.
	for id := uint32(secStream); id <= secCounters; id++ {
		if !seen[id] {
			return nil, fmt.Errorf("%w: missing section %d", ErrTruncated, id)
		}
	}
	if err := validate(c); err != nil {
		return nil, err
	}
	return c, nil
}

// validate applies the cross-section invariants a well-formed checkpoint
// satisfies; violations mean crafted or corrupted input that slipped past
// the per-section CRCs.
func validate(c *Checkpoint) error {
	d := c.Session
	if c.FrameCount < 0 || d.Next < 0 || d.Next > c.FrameCount {
		return fmt.Errorf("%w: cursor %d over %d frames", ErrCorrupt, d.Next, c.FrameCount)
	}
	if len(d.Records) != len(d.Timings) {
		return fmt.Errorf("%w: %d records, %d timings", ErrCorrupt, len(d.Records), len(d.Timings))
	}
	// The session appends one record per frame it serves, so the cursor
	// equals the record count; a cursor ahead of the records would skip
	// frames on restore and leave them unrecorded.
	if len(d.Records) != d.Next {
		return fmt.Errorf("%w: %d records at cursor %d", ErrCorrupt, len(d.Records), d.Next)
	}
	if !(d.PeriodSec >= 0) || d.Base < 0 || d.Done < 0 || d.Deadline < 0 {
		return fmt.Errorf("%w: negative schedule", ErrCorrupt)
	}
	return nil
}

func decodeStream(p *reader, c *Checkpoint) error {
	d := c.Session
	d.Name = p.str()
	d.PolicyName = p.str()
	d.PeriodSec = p.f64()
	c.FrameCount = p.int()
	d.Next = p.int()
	d.Base = p.dur()
	d.Done = p.dur()
	d.Deadline = p.dur()
	d.Prev = p.pair()
	c.Scenario = p.str()
	c.RenderSeed = p.u64()
	return p.close(secStream)
}

func decodeRecords(p *reader, d *runtime.SessionSnapshot) error {
	// A record serializes to ≥ 62 bytes; the count can never exceed what
	// the payload could hold, so a crafted count cannot force a huge
	// allocation.
	n := p.count(62)
	recs := make([]runtime.FrameRecord, 0, n)
	for i := 0; i < n; i++ {
		var rec runtime.FrameRecord
		rec.Index = p.int()
		rec.Pair = p.pair()
		rec.Found = p.bool()
		rec.Conf = p.f64()
		rec.IoU = p.f64()
		rec.Box.X = p.f64()
		rec.Box.Y = p.f64()
		rec.Box.W = p.f64()
		rec.Box.H = p.f64()
		rec.LatSec = p.f64()
		rec.EnergyJ = p.f64()
		rec.Swapped = p.bool()
		rec.LoadedModel = p.bool()
		rec.Rescheduled = p.bool()
		rec.Similarity = p.f64()
		rec.Gate = p.f64()
		recs = append(recs, rec)
	}
	d.Records = recs
	return p.close(secRecords)
}

func decodeTimings(p *reader, d *runtime.SessionSnapshot) error {
	n := p.count(40)
	ts := make([]runtime.FrameTiming, 0, n)
	for i := 0; i < n; i++ {
		var t runtime.FrameTiming
		t.Arrival = p.dur()
		t.Start = p.dur()
		t.Done = p.dur()
		t.Wait = p.dur()
		t.Deadline = p.dur()
		ts = append(ts, t)
	}
	d.Timings = ts
	return p.close(secTimings)
}

func decodeCounters(p *reader, c *Checkpoint) error {
	n := p.count(12)
	for i := 0; i < n; i++ {
		name := p.str()
		val := p.u64()
		if p.err != nil {
			break
		}
		if _, dup := c.Counters[name]; dup {
			return fmt.Errorf("%w: duplicate counter %q", ErrCorrupt, name)
		}
		c.Counters[name] = val
	}
	return p.close(secCounters)
}

// encodePolicy serializes the portable policy state. The format knows the
// concrete types it carries; an unknown type is an encode error so callers
// find out at checkpoint time, not at a failed restore after a crash.
func encodePolicy(p *writer, state any) error {
	switch st := state.(type) {
	case nil:
		p.u8(policyNone)
		return nil
	case *pipeline.State:
		p.u8(policyShift)
		p.pair(st.Cur)
		return encodeSchedState(p, st.Sched)
	default:
		return fmt.Errorf("checkpoint: unencodable policy state %T", state)
	}
}

func encodeSchedState(p *writer, d *sched.State) error {
	n := len(d.Models)
	if len(d.Bufs) != n || len(d.RVals) != n || len(d.RSet) != n || len(d.Valid) != n {
		return fmt.Errorf("checkpoint: inconsistent scheduler state: %d models, %d/%d/%d/%d entries",
			n, len(d.Bufs), len(d.RVals), len(d.RSet), len(d.Valid))
	}
	p.i64(int64(n))
	for i := 0; i < n; i++ {
		p.str(d.Models[i])
		p.i64(int64(len(d.Bufs[i])))
		for _, v := range d.Bufs[i] {
			p.f64(v)
		}
		p.f64(d.RVals[i])
		p.bool(d.RSet[i])
		p.bool(d.Valid[i])
	}
	p.image(d.LastImg)
	p.image(d.LastBox)
	p.u64(d.ImgSum)
	p.u64(d.ImgSumSq)
	p.u64(d.BoxSum)
	p.u64(d.BoxSumSq)
	p.i64(int64(d.BoxFlip))
	return nil
}

func decodePolicy(p *reader, d *runtime.SessionSnapshot) error {
	switch kind := p.u8(); {
	case p.err != nil:
		return p.err
	case kind == policyNone:
		return p.close(secPolicy)
	case kind == policyShift:
		cur := p.pair()
		st := decodeSchedState(p)
		if err := p.close(secPolicy); err != nil {
			return err
		}
		d.PolicyState = &pipeline.State{Sched: st, Cur: cur}
		return nil
	default:
		return fmt.Errorf("%w: unknown policy state kind %d", ErrCorrupt, kind)
	}
}

// decodeSchedState builds the per-model slices together, so the state is
// consistent by construction; read errors surface at the section's close.
func decodeSchedState(p *reader) *sched.State {
	n := p.count(16)
	d := &sched.State{
		Models: make([]string, 0, n),
		Bufs:   make([][]float64, 0, n),
		RVals:  make([]float64, 0, n),
		RSet:   make([]bool, 0, n),
		Valid:  make([]bool, 0, n),
	}
	for i := 0; i < n; i++ {
		d.Models = append(d.Models, p.str())
		m := p.count(8)
		buf := make([]float64, 0, m)
		for j := 0; j < m; j++ {
			buf = append(buf, p.f64())
		}
		d.Bufs = append(d.Bufs, buf)
		d.RVals = append(d.RVals, p.f64())
		d.RSet = append(d.RSet, p.bool())
		d.Valid = append(d.Valid, p.bool())
	}
	d.LastImg = p.image()
	d.LastBox = p.image()
	d.ImgSum = p.u64()
	d.ImgSumSq = p.u64()
	d.BoxSum = p.u64()
	d.BoxSumSq = p.u64()
	d.BoxFlip = p.int()
	return d
}
