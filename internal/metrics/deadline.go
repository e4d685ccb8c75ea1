package metrics

import (
	"fmt"

	"repro/internal/runtime"
)

// DeadlineStats models a live camera feeding the detector at a fixed frame
// period: frame i arrives at i·period, processing starts at the later of
// its arrival and the previous frame's completion, and the frame is on time
// when it completes before the next arrival. Sustained overruns accumulate
// backlog, which is how a too-slow single-model deployment degrades in
// practice — the latency constraint the paper's scheduler optimizes under.
type DeadlineStats struct {
	PeriodSec float64
	// OnTime counts frames completed within their period.
	OnTime int
	// Late counts frames that completed after their deadline.
	Late int
	// MaxBacklogSec is the worst accumulated processing backlog.
	MaxBacklogSec float64
	// AvgLatencySec is the mean arrival-to-completion latency (queueing
	// included), as opposed to pure processing time.
	AvgLatencySec float64
}

// OnTimeRate returns the fraction of frames meeting their deadline.
func (d DeadlineStats) OnTimeRate() float64 {
	total := d.OnTime + d.Late
	if total == 0 {
		return 0
	}
	return float64(d.OnTime) / float64(total)
}

// String summarizes the stats.
func (d DeadlineStats) String() string {
	return fmt.Sprintf("%.1f%% on time at %.0f fps (max backlog %.2fs, avg latency %.3fs)",
		d.OnTimeRate()*100, 1/d.PeriodSec, d.MaxBacklogSec, d.AvgLatencySec)
}

// Deadline replays a result's per-frame processing times against a camera
// period and returns the deadline statistics. It panics-free handles empty
// results and non-positive periods (returning zero stats).
func Deadline(res *runtime.Result, periodSec float64) DeadlineStats {
	d := DeadlineStats{PeriodSec: periodSec}
	if periodSec <= 0 || len(res.Records) == 0 {
		return d
	}
	var done float64 // completion time of the previous frame
	var latencySum float64
	for i, rec := range res.Records {
		arrival := float64(i) * periodSec
		start := arrival
		if done > start {
			start = done
		}
		done = start + rec.LatSec
		latency := done - arrival
		latencySum += latency
		if backlog := start - arrival; backlog > d.MaxBacklogSec {
			d.MaxBacklogSec = backlog
		}
		if done <= arrival+periodSec {
			d.OnTime++
		} else {
			d.Late++
		}
	}
	d.AvgLatencySec = latencySum / float64(len(res.Records))
	return d
}
