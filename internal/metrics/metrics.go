// Package metrics aggregates per-frame pipeline records into the summary
// statistics the paper reports: average IoU, per-frame time and energy,
// success rate (fraction of frames with IoU ≥ 0.5), non-GPU share, swap
// counts and pairs used (Table III), plus the correlation statistics behind
// the sensitivity analysis of Fig. 5.
package metrics

import (
	"fmt"
	"math"

	"repro/internal/pipeline"
	"repro/internal/runtime"
)

// SuccessIoU is the paper's success threshold: a frame counts as successful
// when its IoU is at least 0.5.
const SuccessIoU = 0.5

// Summary is one method's aggregate over one or more scenarios — a row of
// Table III.
type Summary struct {
	Method      string
	Scenarios   int
	Frames      int
	AvgIoU      float64
	AvgTimeSec  float64
	AvgEnergyJ  float64
	SuccessRate float64
	NonGPUFrac  float64
	// Swaps is the total number of pair changes; PairsUsed the mean number
	// of distinct (model, kind) pairs per scenario (Table III reports the
	// average, e.g. SHIFT's 4.3).
	Swaps     int
	PairsUsed float64
}

// Summarize reduces a single result to its summary.
func Summarize(res *runtime.Result) Summary {
	s := Summary{Method: res.Method, Scenarios: 1, Frames: len(res.Records)}
	if s.Frames == 0 {
		return s
	}
	success := 0
	for _, r := range res.Records {
		s.AvgIoU += r.IoU
		s.AvgTimeSec += r.LatSec
		s.AvgEnergyJ += r.EnergyJ
		if r.IoU >= SuccessIoU {
			success++
		}
	}
	n := float64(s.Frames)
	s.AvgIoU /= n
	s.AvgTimeSec /= n
	s.AvgEnergyJ /= n
	s.SuccessRate = float64(success) / n
	s.NonGPUFrac = pipeline.NonGPUFraction(res)
	s.Swaps = pipeline.SwapCount(res)
	s.PairsUsed = float64(pipeline.PairsUsed(res))
	return s
}

// Combine merges per-scenario summaries of the same method into the
// frame-weighted overall summary (how Table III's averages are formed).
// Swap counts are averaged per scenario, as in the paper's table.
func Combine(summaries []Summary) (Summary, error) {
	if len(summaries) == 0 {
		return Summary{}, fmt.Errorf("metrics: no summaries to combine")
	}
	out := Summary{Method: summaries[0].Method}
	totalFrames := 0
	totalSwaps := 0
	var pairsSum float64
	for _, s := range summaries {
		if s.Method != out.Method {
			return Summary{}, fmt.Errorf("metrics: mixed methods %q and %q", out.Method, s.Method)
		}
		out.Scenarios += s.Scenarios
		totalFrames += s.Frames
		n := float64(s.Frames)
		out.AvgIoU += s.AvgIoU * n
		out.AvgTimeSec += s.AvgTimeSec * n
		out.AvgEnergyJ += s.AvgEnergyJ * n
		out.SuccessRate += s.SuccessRate * n
		out.NonGPUFrac += s.NonGPUFrac * n
		totalSwaps += s.Swaps
		pairsSum += s.PairsUsed
	}
	out.Frames = totalFrames
	if totalFrames > 0 {
		n := float64(totalFrames)
		out.AvgIoU /= n
		out.AvgTimeSec /= n
		out.AvgEnergyJ /= n
		out.SuccessRate /= n
		out.NonGPUFrac /= n
	}
	out.Swaps = int(math.Round(float64(totalSwaps) / float64(len(summaries))))
	out.PairsUsed = pairsSum / float64(len(summaries))
	return out, nil
}

// EfficiencySeries returns the per-frame IoU-per-Joule series of a result —
// the quantity plotted in Fig. 2. Frames with zero energy yield zero.
func EfficiencySeries(res *runtime.Result) []float64 {
	out := make([]float64, len(res.Records))
	for i, r := range res.Records {
		if r.EnergyJ > 0 {
			out[i] = r.IoU / r.EnergyJ
		}
	}
	return out
}

// Pearson returns the Pearson correlation coefficient between x and y.
// It returns 0 when either series is constant or the lengths differ.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// MovingAverage smooths a series with a centered window of the given width
// (used when rendering the Fig. 2-4 timelines).
func MovingAverage(series []float64, window int) []float64 {
	if window <= 1 {
		out := make([]float64, len(series))
		copy(out, series)
		return out
	}
	out := make([]float64, len(series))
	half := window / 2
	for i := range series {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half + 1
		if hi > len(series) {
			hi = len(series)
		}
		var sum float64
		for _, v := range series[lo:hi] {
			sum += v
		}
		out[i] = sum / float64(hi-lo)
	}
	return out
}

// Welford accumulates running mean and variance without storing samples.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates a sample.
func (w *Welford) Add(v float64) {
	w.n++
	d := v - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (v - w.mean)
}

// N returns the sample count.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 with no samples).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the population variance (0 with fewer than 2 samples).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Std returns the population standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }
