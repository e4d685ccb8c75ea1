package obs

import (
	"sort"
	"time"
)

// Attribution is the recorder's latency decomposition over every served
// frame: where arrival→completion time went, overall and over the p99 tail.
// Each share is a fraction of the summed end-to-end latency of the frames
// considered; the four shares sum to 1 (up to float rounding — the
// underlying Duration components sum bit-exactly, property-tested in
// internal/fleet).
type Attribution struct {
	// Frames is the attributed frame-span count; TotalSec their summed
	// end-to-end latency.
	Frames   int
	TotalSec float64
	// QueueShare, SwapShare, ExecShare and InterferenceShare split the
	// total across the four components.
	QueueShare        float64
	SwapShare         float64
	ExecShare         float64
	InterferenceShare float64

	// P99Sec is the nearest-rank p99 frame latency; TailFrames counts the
	// frames at or above it, and the *OfP99 shares decompose those tail
	// frames' summed latency — SwapStallShareOfP99 is the headline the
	// swap-prefetch roadmap item is gated on.
	P99Sec                 float64
	TailFrames             int
	QueueShareOfP99        float64
	SwapStallShareOfP99    float64
	ExecShareOfP99         float64
	InterferenceShareOfP99 float64
}

// Attribution reduces the recorder's frame spans to the latency
// decomposition. Sums run in the integer Duration domain; only the final
// shares divide into float64, so the reduction is as deterministic as the
// span list itself.
func (r *Recorder) Attribution() Attribution {
	var a Attribution
	var total, queue, swap, exec, wait time.Duration
	lats := make([]float64, 0, 1024)
	for _, sp := range r.spans {
		if sp.Kind != SpanFrame {
			continue
		}
		a.Frames++
		total += sp.Dur()
		queue += sp.Queue
		swap += sp.Swap
		exec += sp.Exec
		wait += sp.Wait
		lats = append(lats, sp.Dur().Seconds())
	}
	if a.Frames == 0 {
		return a
	}
	a.TotalSec = total.Seconds()
	if total > 0 {
		a.QueueShare = float64(queue) / float64(total)
		a.SwapShare = float64(swap) / float64(total)
		a.ExecShare = float64(exec) / float64(total)
		a.InterferenceShare = float64(wait) / float64(total)
	}
	a.P99Sec = p99(lats)
	// The tail set: frames whose latency is at or above the nearest-rank
	// p99 sample. Seconds() of a Duration is exact enough here — the
	// threshold is itself one of the samples, so >= matches it exactly.
	var tTotal, tQueue, tSwap, tExec, tWait time.Duration
	for _, sp := range r.spans {
		if sp.Kind != SpanFrame || sp.Dur().Seconds() < a.P99Sec {
			continue
		}
		a.TailFrames++
		tTotal += sp.Dur()
		tQueue += sp.Queue
		tSwap += sp.Swap
		tExec += sp.Exec
		tWait += sp.Wait
	}
	if tTotal > 0 {
		a.QueueShareOfP99 = float64(tQueue) / float64(tTotal)
		a.SwapStallShareOfP99 = float64(tSwap) / float64(tTotal)
		a.ExecShareOfP99 = float64(tExec) / float64(tTotal)
		a.InterferenceShareOfP99 = float64(tWait) / float64(tTotal)
	}
	return a
}

// p99 is the nearest-rank p99 — the same reduction internal/metrics uses,
// restated here because obs sits below metrics in the import graph (the
// runtime engine links against obs). Values must agree bit-for-bit with
// metrics.Latencies(samples).P99, which the fleet tests assert.
func p99(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	const q = 0.99
	rank := int(q * float64(len(sorted)))
	if float64(rank) < q*float64(len(sorted)) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}
