package baseline

import (
	"fmt"

	"repro/internal/runtime"
	"repro/internal/scene"
	"repro/internal/zoo"
)

// FrameSkip is the frame-skipping baseline family the paper contrasts with
// in related work (AdaVP [4], FrameHopper [6]): run the DNN on every Nth
// frame and reuse the last detection in between. It saves energy linearly
// in the skip factor but pays accuracy as the stale box drifts off the
// moving target — unlike SHIFT, which keeps detecting every frame on
// cheaper (model, accelerator) pairs. The paper's conclusion highlights
// that SHIFT needs neither tracking nor skipping; this baseline quantifies
// what skipping alone would give up.
type FrameSkip struct {
	pol *frameSkipPolicy
	eng *runtime.Engine
}

// NewFrameSkip builds a skipping runner: the DNN runs on frames where
// index % skip == 0. skip = 1 degenerates to the single-model baseline.
func NewFrameSkip(sys *zoo.System, model, procID string, skip int) (*FrameSkip, error) {
	if skip < 1 {
		return nil, fmt.Errorf("baseline: skip factor must be >= 1, got %d", skip)
	}
	pair, err := findPair(sys, model, procID)
	if err != nil {
		return nil, err
	}
	pol := &frameSkipPolicy{pair: pair, skip: skip}
	return &FrameSkip{pol: pol, eng: newEngine(sys, pol)}, nil
}

// Name implements runtime.Runner.
func (f *FrameSkip) Name() string { return f.pol.Name() }

// Run implements runtime.Runner.
func (f *FrameSkip) Run(scenario string, frames []scene.Frame) (*runtime.Result, error) {
	return f.eng.Run(scenario, frames)
}

// frameSkipPolicy runs the DNN every Nth frame and serves the stale
// detection in between.
type frameSkipPolicy struct {
	pair zoo.Pair
	skip int

	last     runtime.FrameRecord
	haveLast bool
}

// Name implements runtime.Policy.
func (p *frameSkipPolicy) Name() string {
	return fmt.Sprintf("%s@%s skip=%d", p.pair.Model, p.pair.ProcID, p.skip)
}

// Reset implements runtime.Policy: forget the stale detection.
func (p *frameSkipPolicy) Reset(*runtime.Engine) error {
	p.last = runtime.FrameRecord{}
	p.haveLast = false
	return nil
}

// Step implements runtime.Policy.
func (p *frameSkipPolicy) Step(st *runtime.Step) error {
	st.Rec().Pair = p.pair
	if st.Pos()%p.skip == 0 {
		pair, err := st.Acquire(p.pair)
		if err != nil {
			return err
		}
		if err := st.Exec(pair); err != nil {
			return err
		}
		det, err := st.Detect(pair.Model)
		if err != nil {
			return err
		}
		st.RecordDetection(det)
		p.last = *st.Rec()
		p.haveLast = true
	} else if p.haveLast && p.last.Found {
		// Reuse the stale detection; score it against this frame's
		// ground truth — the accuracy a consumer actually sees.
		rec := st.Rec()
		rec.Found = true
		rec.Conf = p.last.Conf
		rec.Box = p.last.Box
		rec.IoU = p.last.Box.IoU(st.Frame().GT)
		// Skipped frames still pay a negligible copy cost; model it as
		// zero compute but non-zero bookkeeping is below measurement
		// granularity, so charge nothing (the most favourable case for
		// the baseline).
	}
	return nil
}
