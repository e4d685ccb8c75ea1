package pipeline

import (
	"fmt"

	"repro/internal/runtime"
	"repro/internal/scene"
	"repro/internal/zoo"
)

// LiveResult is the outcome of a live-feed run: the processed-frame records
// plus per-stream accounting of what the camera delivered and what had to be
// dropped while the pipeline was busy.
type LiveResult struct {
	// Result holds records for the frames that were actually processed.
	Result *runtime.Result
	// Delivered is the number of frames the camera produced.
	Delivered int
	// Dropped is the number of frames skipped because the pipeline was
	// still busy when they arrived (single-slot camera queue, newest wins).
	Dropped int
	// EffectiveIoU is the stream-level accuracy: the per-frame IoU of every
	// delivered frame, where a dropped frame scores the IoU of the most
	// recent detection evaluated against the dropped frame's ground truth —
	// what a consumer of stale detections actually experiences.
	EffectiveIoU float64
}

// DropRate returns the fraction of delivered frames that were dropped.
func (l *LiveResult) DropRate() float64 {
	if l.Delivered == 0 {
		return 0
	}
	return float64(l.Dropped) / float64(l.Delivered)
}

// RunLive replays the scenario as a live camera at the given frame period
// (seconds): frames arrive on the virtual clock whether or not the pipeline
// is ready, and a frame that arrives while processing is still in flight is
// dropped (the camera keeps only the newest frame). This is the streaming
// regime the paper's related work (Marlin, AdaVP, FrameHopper) operates in;
// the paper's own evaluation processes every frame, which RunLive reduces to
// when periodSec is 0.
//
// Runner must be a *SHIFT (the scheduler's NCC history needs the actual
// processed-frame sequence); baselines can be wrapped the same way if
// needed.
func (s *SHIFT) RunLive(scenario string, frames []scene.Frame, periodSec float64) (*LiveResult, error) {
	if periodSec < 0 {
		return nil, fmt.Errorf("pipeline: negative camera period %v", periodSec)
	}
	s.scheduler.Reset()
	live := &LiveResult{
		Result:    &runtime.Result{Method: s.Name() + " (live)", Scenario: scenario},
		Delivered: len(frames),
	}
	cur := s.initial

	// lastBox tracks the most recent detection for stale-consumer scoring.
	var haveLast bool
	var lastRec runtime.FrameRecord
	var iouSum float64

	clock := s.sys.SoC.Clock
	busyUntil := clock.Now().Seconds()

	prev := cur
	for i, frame := range frames {
		arrival := float64(i) * periodSec
		if periodSec > 0 && arrival < busyUntil {
			// Pipeline still busy: the consumer reuses the stale detection.
			live.Dropped++
			if haveLast && lastRec.Found {
				// Score the stale box against this frame's ground truth.
				iouSum += staleIoU(lastRec, frame)
			}
			continue
		}

		rec := runtime.FrameRecord{Index: frame.Index, Pair: cur}
		rec.Swapped = i > 0 && cur != prev
		prev = cur

		loadCost, err := s.dml.Ensure(cur)
		if err != nil {
			return nil, err
		}
		rec.LoadedModel = loadCost.Lat > 0
		rec.LatSec += loadCost.Lat.Seconds()
		rec.EnergyJ += loadCost.Energy

		perf, err := s.sys.Perf(cur.Model, cur.ProcID)
		if err != nil {
			return nil, err
		}
		execCost, err := s.sys.SoC.Exec(cur.ProcID, perf.LatencySec, perf.PowerW)
		if err != nil {
			return nil, err
		}
		rec.LatSec += execCost.Lat.Seconds()
		rec.EnergyJ += execCost.Energy

		entry, err := s.sys.Entry(cur.Model)
		if err != nil {
			return nil, err
		}
		det := entry.Model.Detect(frame, s.sys.Seed)
		rec.Found, rec.Conf, rec.IoU, rec.Box = det.Found, det.Conf, det.IoU, det.Box

		ovh, err := s.sys.SoC.Exec("cpu", zoo.SchedulerOverhead.LatencySec, zoo.SchedulerOverhead.PowerW)
		if err != nil {
			return nil, err
		}
		rec.LatSec += ovh.Lat.Seconds()
		rec.EnergyJ += ovh.Energy

		dec := s.scheduler.Decide(cur, det, frame)
		rec.Rescheduled = dec.Rescheduled
		rec.Similarity = dec.Similarity
		rec.Gate = dec.Gate
		cur = dec.Pair

		live.Result.Records = append(live.Result.Records, rec)
		iouSum += rec.IoU
		lastRec = rec
		haveLast = true
		// The pipeline is busy from this frame's start (its arrival, or the
		// previous completion for period 0) for the processing duration.
		start := arrival
		if busyUntil > start {
			start = busyUntil
		}
		busyUntil = start + rec.LatSec
	}
	if live.Delivered > 0 {
		live.EffectiveIoU = iouSum / float64(live.Delivered)
	}
	return live, nil
}

// staleIoU evaluates a past detection's box against a newer frame's ground
// truth: the overlap a consumer of the stale detection actually gets. Zero
// when either side has nothing.
func staleIoU(rec runtime.FrameRecord, frame scene.Frame) float64 {
	if !rec.Found || frame.GT.Empty() {
		return 0
	}
	return rec.Box.IoU(frame.GT)
}
