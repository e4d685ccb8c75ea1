package distrib

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/loader"
	"repro/internal/runtime"
	"repro/internal/scene"
	"repro/internal/zoo"
)

// maxLine bounds one protocol line (a checkpoint for a long stream is the
// largest payload; base64-in-JSON roughly ×1.4 over the wire bytes).
const maxLine = 16 << 20

// PolicyBuilder constructs one stream's decision logic on the worker's
// device.
type PolicyBuilder func(sys *zoo.System) (runtime.Policy, error)

// WorkerConfig parameterizes one worker process.
type WorkerConfig struct {
	// Name is the worker's device name, reported in hello responses.
	Name string
	// Seed drives the device's detection jitter. Workers serving the same
	// workload share it: detections model stream content, so a migrated
	// stream must draw the same detections on its new worker — that is what
	// makes recovery decision-preserving across processes.
	Seed uint64
	// NewSystem builds the device platform + zoo (default zoo.Default).
	NewSystem func(seed uint64) *zoo.System
	// Eviction is the loader eviction policy (default LRR).
	Eviction loader.EvictionPolicy
	// Policies maps policy names to builders; the "fixed:<model>/<proc>"
	// family is built in.
	Policies map[string]PolicyBuilder
}

// workerStream is one stream the worker serves (or served) — live session
// plus the idempotency cache.
type workerStream struct {
	sess *runtime.Session
	// lastID/lastResp replay the previous response when a retried request
	// re-arrives, so a lost response never double-advances the stream.
	lastID   uint64
	lastResp *Response
}

// worker is the per-process serving state behind RunWorker.
type worker struct {
	cfg     WorkerConfig
	sys     *zoo.System
	dml     *loader.Loader
	streams map[string]*workerStream
}

// RunWorker speaks the worker side of the protocol over r/w (stdin/stdout of
// a worker process, or in-process pipes) until shutdown or EOF. Every live
// session is closed on exit; the error reports protocol-level failures only —
// per-request serving errors travel back in Response.Err.
func RunWorker(r io.Reader, w io.Writer, cfg WorkerConfig) error {
	newSystem := cfg.NewSystem
	if newSystem == nil {
		newSystem = zoo.Default
	}
	sys := newSystem(cfg.Seed)
	wk := &worker{
		cfg:     cfg,
		sys:     sys,
		dml:     loader.New(sys, cfg.Eviction),
		streams: map[string]*workerStream{},
	}
	defer wk.closeAll()

	out := bufio.NewWriter(w)
	enc := json.NewEncoder(out)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLine)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			return fmt.Errorf("distrib: worker %s: bad request line: %w", cfg.Name, err)
		}
		resp := wk.handle(&req)
		if err := enc.Encode(resp); err != nil {
			return fmt.Errorf("distrib: worker %s: write response: %w", cfg.Name, err)
		}
		if err := out.Flush(); err != nil {
			return fmt.Errorf("distrib: worker %s: flush response: %w", cfg.Name, err)
		}
		if req.Cmd == CmdShutdown {
			return nil
		}
	}
	return sc.Err()
}

// closeAll releases every live session's residency holds.
func (wk *worker) closeAll() {
	names := make([]string, 0, len(wk.streams))
	for name := range wk.streams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if st := wk.streams[name]; st.sess != nil {
			_ = st.sess.Close()
			st.sess = nil
		}
	}
}

// handle dispatches one request.
func (wk *worker) handle(req *Request) *Response {
	switch req.Cmd {
	case CmdHello, CmdPing:
		return &Response{ID: req.ID, OK: true, Device: wk.cfg.Name}
	case CmdServe:
		return wk.serve(req)
	case CmdShutdown:
		wk.closeAll()
		return &Response{ID: req.ID, OK: true, Device: wk.cfg.Name, LeakedRefs: wk.dml.TotalRefs()}
	default:
		return fail(req, fmt.Errorf("unknown command %q", req.Cmd))
	}
}

// fail wraps an error into a response.
func fail(req *Request, err error) *Response {
	return &Response{ID: req.ID, OK: false, Err: err.Error()}
}

// serve advances one stream by up to Chunk frames, opening or restoring the
// session first when the worker does not hold it live.
func (wk *worker) serve(req *Request) *Response {
	st := wk.streams[req.Stream]
	if st != nil && st.lastResp != nil && st.lastID == req.ID {
		// Retried request: the previous response was lost in transit, not
		// unprocessed. Replay it rather than advancing again.
		return st.lastResp
	}
	if st == nil {
		st = &workerStream{}
		wk.streams[req.Stream] = st
	}
	resp := wk.advance(st, req)
	st.lastID, st.lastResp = req.ID, resp
	return resp
}

// advance is the serve body: session build + chunk run + checkpoint.
func (wk *worker) advance(st *workerStream, req *Request) *Response {
	if st.sess == nil {
		sess, err := wk.open(req)
		if err != nil {
			return fail(req, err)
		}
		st.sess = sess
	}
	sess := st.sess
	for n := 0; !sess.Done() && (req.Chunk <= 0 || n < req.Chunk); n++ {
		if err := sess.Step(); err != nil {
			return fail(req, fmt.Errorf("step %s: %w", req.Stream, err))
		}
	}
	resp := &Response{ID: req.ID, OK: true, Served: len(sess.Result().Result.Records)}
	snap := sess.Snapshot()
	data, err := checkpoint.EncodeSnapshot(snap, req.Scenario, req.RenderSeed, nil)
	if err != nil {
		return fail(req, fmt.Errorf("checkpoint %s: %w", req.Stream, err))
	}
	resp.Checkpoint = data
	if sess.Done() {
		resp.Done = true
		resp.Digest = DecisionDigest(sess.Result().Result.Records)
		if err := sess.Close(); err != nil {
			return fail(req, fmt.Errorf("close %s: %w", req.Stream, err))
		}
		st.sess = nil
	}
	return resp
}

// open builds the stream's session: fresh, or restored from the journaled
// checkpoint the request carries.
func (wk *worker) open(req *Request) (*runtime.Session, error) {
	sc, err := scene.ByName(req.Scenario)
	if err != nil {
		return nil, err
	}
	frames := sc.Render(req.RenderSeed)
	if req.Frames <= 0 || req.Frames > len(frames) {
		return nil, fmt.Errorf("stream %s wants %d frames of %d-frame %s", req.Stream, req.Frames, len(frames), req.Scenario)
	}
	frames = frames[:req.Frames]
	pol, err := wk.policy(req.Policy)
	if err != nil {
		return nil, err
	}
	if len(req.Checkpoint) == 0 {
		return runtime.OpenSession(wk.sys, wk.dml, runtime.StreamSpec{
			Name: req.Stream, Frames: frames, PeriodSec: req.PeriodSec, Policy: pol,
		})
	}
	c, err := checkpoint.Decode(req.Checkpoint)
	if err != nil {
		return nil, fmt.Errorf("journal for %s: %w", req.Stream, err)
	}
	snap, err := c.Snapshot(frames)
	if err != nil {
		return nil, fmt.Errorf("rebuild %s: %w", req.Stream, err)
	}
	var at time.Duration
	if k := snap.Served(); k > 0 {
		at = snap.Timings[k-1].Done
	}
	return runtime.RestoreSession(wk.sys, wk.dml, snap, pol, at)
}

// policy resolves a policy name through the registry, with the
// "fixed:<model>/<proc>" family built in.
func (wk *worker) policy(name string) (runtime.Policy, error) {
	if b, ok := wk.cfg.Policies[name]; ok {
		return b(wk.sys)
	}
	if spec, ok := strings.CutPrefix(name, "fixed:"); ok {
		model, proc, ok := strings.Cut(spec, "/")
		if !ok || model == "" || proc == "" {
			return nil, fmt.Errorf("bad fixed policy %q, want fixed:<model>/<proc>", name)
		}
		return &fixedPolicy{model: model, proc: proc}, nil
	}
	return nil, fmt.Errorf("unknown policy %q", name)
}

// fixedPolicy serves every frame from one (model, proc) pair — the builtin
// zero-state policy (migrates by Reset, decisions identical on any worker
// with the shared seed).
type fixedPolicy struct {
	model, proc string
	pair        zoo.Pair
	found       bool
}

func (p *fixedPolicy) Name() string { return "fixed " + p.model + "@" + p.proc }

func (p *fixedPolicy) Reset(e *runtime.Engine) error {
	for _, rp := range e.System().RuntimePairs() {
		if rp.Model == p.model && rp.ProcID == p.proc {
			p.pair, p.found = rp, true
			return nil
		}
	}
	return fmt.Errorf("distrib: no runtime pair %s@%s", p.model, p.proc)
}

func (p *fixedPolicy) Step(st *runtime.Step) error {
	if !p.found {
		return fmt.Errorf("distrib: fixed policy not bound to a pair")
	}
	pair, err := st.Acquire(p.pair)
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

// DecisionDigest is the FNV-1a digest over the content- and decision-derived
// record fields — the projection the churn conformance suite pins. Charged
// costs (latency, energy, load flags) are excluded: a recovered stream pays
// re-acquisition loads its uninterrupted twin does not, but must decide
// identically.
func DecisionDigest(recs []runtime.FrameRecord) uint64 {
	h := fnv.New64a()
	for _, r := range recs {
		fmt.Fprintf(h, "%d|%s|%t|%v|%v|%v|%t|%t|%v|%v\n",
			r.Index, r.Pair, r.Found, r.Conf, r.IoU, r.Box, r.Swapped, r.Rescheduled, r.Similarity, r.Gate)
	}
	return h.Sum64()
}
