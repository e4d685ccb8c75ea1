package main

import (
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/confgraph"
	"repro/internal/detmodel"
	"repro/internal/img"
	"repro/internal/loader"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/runtime"
	"repro/internal/scene"
	"repro/internal/sched"
	"repro/internal/zoo"
)

// microFrames caps the frames drawn from each rendered scenario for the
// micro rows.
const microFrames = 300

// microEncodes is how many times the checkpoint row encodes and decodes its
// mid-stream snapshot.
const microEncodes = 200

// microTimes is host time over counted calls of each micro row. A row a
// workload bypasses stays at zero calls.
type microTimes struct {
	detect, ncc, nccSearch, decide, ensure, exec, encode, decode time.Duration

	detects, nccs, searches, decides, ensures, execs, encodes, decodes int
}

// timed runs fn once to warm up, then again under the clock, and returns the
// second run's host time.
func timed(clk clock, fn func() error) (time.Duration, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	t0 := clk.now()
	err := fn()
	return clk.since(t0), err
}

// sampleFrames returns up to microFrames leading frames of each scenario.
func sampleFrames(frames [][]scene.Frame) [][]scene.Frame {
	out := make([][]scene.Frame, len(frames))
	for i, f := range frames {
		out[i] = f[:min(len(f), microFrames)]
	}
	return out
}

// microDetect times detmodel.Model.Detect for every zoo model on the sampled
// frames.
func microDetect(clk clock, m *microTimes, frames [][]scene.Frame) error {
	sys := zoo.Default(charSeed)
	calls := 0
	d, err := timed(clk, func() error {
		calls = 0
		for _, sc := range frames {
			for _, f := range sc {
				for _, e := range sys.Entries {
					e.Model.Detect(f, sys.Seed)
					calls++
				}
			}
		}
		return nil
	})
	m.detect, m.detects = d, calls
	return err
}

// microPixels times the scheduler's whole-frame NCC between consecutive
// frames, and NCCSearch of a 21×21 template cut around the target in one
// frame over the 41×41 window around the same point in the next, the
// tracker's step.
func microPixels(clk clock, m *microTimes, frames [][]scene.Frame) error {
	type searchInput struct{ window, tpl *img.Image }
	var pairs [][2]*img.Image
	var searches []searchInput
	for _, sc := range frames {
		for i := 1; i < len(sc); i++ {
			prev, cur := sc[i-1], sc[i]
			pairs = append(pairs, [2]*img.Image{prev.Image, cur.Image})
			cx, cy := targetCenter(prev)
			searches = append(searches, searchInput{
				window: cur.Image.Crop(cx-20, cy-20, 41, 41),
				tpl:    prev.Image.Crop(cx-10, cy-10, 21, 21),
			})
		}
	}
	d, err := timed(clk, func() error {
		for _, p := range pairs {
			img.NCC(p[0], p[1])
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.ncc, m.nccs = d, len(pairs)
	d, err = timed(clk, func() error {
		for _, s := range searches {
			img.NCCSearch(s.window, s.tpl)
		}
		return nil
	})
	m.nccSearch, m.searches = d, len(searches)
	return err
}

// targetCenter is the ground-truth box center, or the frame center when the
// target is absent.
func targetCenter(f scene.Frame) (int, int) {
	if f.GT.Empty() {
		return f.Image.W / 2, f.Image.H / 2
	}
	return int(f.GT.X + f.GT.W/2), int(f.GT.Y + f.GT.H/2)
}

// microDecide replays SHIFT's decisions over the sampled frames: a first
// pass detects with the chosen model and records the decision inputs, then
// the scheduler is reset and the same Decide sequence is timed. It returns
// the pair sequence, which drives the loader and accel rows.
func microDecide(clk clock, m *microTimes, frames [][]scene.Frame, ch *profile.Characterization, graph *confgraph.Graph) ([]zoo.Pair, error) {
	sys := zoo.Default(charSeed)
	opts := pipeline.DefaultOptions()
	sc, err := sched.New(sys, ch, graph, opts.Sched)
	if err != nil {
		return nil, err
	}
	var initial zoo.Pair
	for _, p := range sc.Pairs() {
		if p.Model == opts.InitialModel && p.ProcID == opts.InitialProc {
			initial = p
		}
	}
	if initial.Model == "" {
		return nil, fmt.Errorf("shiftbench: initial pair %s@%s is not schedulable", opts.InitialModel, opts.InitialProc)
	}
	type input struct {
		cur   zoo.Pair
		det   detmodel.Detection
		frame scene.Frame
		reset bool
	}
	var inputs []input
	for _, fs := range frames {
		sc.Reset()
		cur := initial
		for i, f := range fs {
			e, err := sys.Entry(cur.Model)
			if err != nil {
				return nil, err
			}
			det := e.Model.Detect(f, sys.Seed)
			inputs = append(inputs, input{cur: cur, det: det, frame: f, reset: i == 0})
			cur = sc.Decide(cur, det, f).Pair
		}
	}
	pairs := make([]zoo.Pair, len(inputs))
	d, err := timed(clk, func() error {
		for i, in := range inputs {
			if in.reset {
				sc.Reset()
			}
			pairs[i] = sc.Decide(in.cur, in.det, in.frame).Pair
			if i+1 < len(inputs) && !inputs[i+1].reset && pairs[i] != inputs[i+1].cur {
				return fmt.Errorf("shiftbench: sched replay diverged at decision %d", i)
			}
		}
		return nil
	})
	m.decide, m.decides = d, len(inputs)
	return pairs, err
}

// microPlatform replays a pair sequence through a fresh loader
// (loader.Ensure: loads, evictions and hits) and through the accelerators
// (accel.SoC.Exec at each pair's characterized profile).
func microPlatform(clk clock, m *microTimes, pairs []zoo.Pair) error {
	ensure := func(dml *loader.Loader) error {
		for _, p := range pairs {
			if _, err := dml.Ensure(p); err != nil {
				return err
			}
		}
		return nil
	}
	newLoader := func() *loader.Loader {
		return loader.New(zoo.Default(charSeed), pipeline.DefaultOptions().Eviction)
	}
	if err := ensure(newLoader()); err != nil { // warm-up on a loader of its own
		return err
	}
	dml := newLoader()
	t0 := clk.now()
	if err := ensure(dml); err != nil {
		return err
	}
	m.ensure, m.ensures = clk.since(t0), len(pairs)

	sys := zoo.Default(charSeed)
	perfs := make([]zoo.Perf, len(pairs))
	for i, p := range pairs {
		perf, err := sys.Perf(p.Model, p.ProcID)
		if err != nil {
			return err
		}
		perfs[i] = perf
	}
	d, err := timed(clk, func() error {
		for i, p := range pairs {
			if _, err := sys.SoC.Exec(p.ProcID, perfs[i].LatencySec, perfs[i].PowerW); err != nil {
				return err
			}
		}
		return nil
	})
	m.exec, m.execs = d, len(pairs)
	return err
}

// microCheckpoint times the wire format on a mid-stream SHIFT snapshot of
// the workload's first stream: the session serves half its frames, is
// snapshotted, and the snapshot is encoded and decoded microEncodes times.
func microCheckpoint(clk clock, m *microTimes, in *fleetInstance) error {
	req := in.cells[0].reqs[0]
	sys := zoo.Default(charSeed)
	pol, err := pipeline.NewPolicy(sys, in.ch, in.graph, pipeline.DefaultOptions())
	if err != nil {
		return err
	}
	sess, err := runtime.OpenSession(sys, loader.New(sys, pipeline.DefaultOptions().Eviction),
		runtime.StreamSpec{Name: req.Name, Frames: req.Frames, PeriodSec: req.PeriodSec, Policy: pol})
	if err != nil {
		return err
	}
	for i := 0; i < len(req.Frames)/2; i++ {
		if err := sess.Step(); err != nil {
			return err
		}
	}
	snap := sess.Snapshot()
	var data []byte
	d, err := timed(clk, func() error {
		for i := 0; i < microEncodes; i++ {
			b, err := checkpoint.EncodeSnapshot(snap, req.Scenario, in.seed, nil)
			if err != nil {
				return err
			}
			data = b
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.encode, m.encodes = d, microEncodes
	d, err = timed(clk, func() error {
		for i := 0; i < microEncodes; i++ {
			if _, err := checkpoint.Decode(data); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.decode, m.decodes = d, microEncodes
	return sess.Close()
}

// micro times the layers paper exercises: pixels, decisions, platform and
// inference. It bypasses checkpoint.
func (p *paperInstance) micro(clk clock, m *microTimes) error {
	frames := sampleFrames(p.frames)
	if err := microDetect(clk, m, frames); err != nil {
		return err
	}
	if err := microPixels(clk, m, frames); err != nil {
		return err
	}
	pairs, err := microDecide(clk, m, frames, p.ch, p.graph)
	if err != nil {
		return err
	}
	return microPlatform(clk, m, pairs)
}

// micro times the layers each fleet workload exercises. fleet-day bypasses
// the pixel, decision and checkpoint rows (its loader and accel calls are
// timed inside the monitor policy of the traced run); fleet-churn runs them
// all.
func (in *fleetInstance) micro(clk clock, m *microTimes) error {
	frames := sampleFrames(in.frames)
	if err := microDetect(clk, m, frames); err != nil {
		return err
	}
	if !in.churn {
		return nil
	}
	if err := microPixels(clk, m, frames); err != nil {
		return err
	}
	pairs, err := microDecide(clk, m, frames, in.ch, in.graph)
	if err != nil {
		return err
	}
	if err := microPlatform(clk, m, pairs); err != nil {
		return err
	}
	return microCheckpoint(clk, m, in)
}
