package main

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/runtime"
)

// hasher is 64-bit FNV-1a over the bit patterns of simulated outputs: two
// runs digest equal only when every hashed float is bit-identical.
type hasher uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newHasher() hasher { return fnvOffset }

func (h *hasher) u64(v uint64) {
	for i := 0; i < 8; i++ {
		*h ^= hasher(byte(v >> (8 * i)))
		*h *= fnvPrime
	}
}

func (h *hasher) int(v int)     { h.u64(uint64(v)) }
func (h *hasher) f64(v float64) { h.u64(math.Float64bits(v)) }
func (h *hasher) sum() uint64   { return uint64(*h) }
func (h *hasher) boolean(v bool) {
	if v {
		h.u64(1)
	} else {
		h.u64(0)
	}
}

func (h *hasher) str(s string) {
	for i := 0; i < len(s); i++ {
		*h ^= hasher(s[i])
		*h *= fnvPrime
	}
	h.int(len(s))
}

// record hashes every simulated field of one frame record.
func (h *hasher) record(r *runtime.FrameRecord) {
	h.int(r.Index)
	h.str(r.Pair.Model)
	h.str(r.Pair.ProcID)
	h.int(int(r.Pair.Kind))
	h.boolean(r.Found)
	h.f64(r.Conf)
	h.f64(r.IoU)
	h.f64(r.Box.X)
	h.f64(r.Box.Y)
	h.f64(r.Box.W)
	h.f64(r.Box.H)
	h.f64(r.LatSec)
	h.f64(r.EnergyJ)
	h.boolean(r.Swapped)
	h.boolean(r.LoadedModel)
	h.boolean(r.Rescheduled)
	h.f64(r.Similarity)
	h.f64(r.Gate)
}

// timing hashes one served frame's virtual-clock timing.
func (h *hasher) timing(t *runtime.FrameTiming) {
	h.u64(uint64(t.Arrival))
	h.u64(uint64(t.Start))
	h.u64(uint64(t.Done))
	h.u64(uint64(t.Wait))
	h.u64(uint64(t.Deadline))
}

func (h *hasher) prefetch(s predict.Stats) {
	h.int(s.Swaps)
	h.int(s.Predicted)
	h.int(s.Correct)
	h.int(s.Issued)
	h.int(s.FullHits)
	h.int(s.LateHits)
	h.f64(s.StallSavedSec)
	h.f64(s.StallResidualSec)
}

// op is one operation of a workload run: a (method, scenario) cell of
// Table III, or one stream offered to a fleet.
type op struct {
	name   string
	digest uint64
	// ok is false when the program did not serve the operation: the cell
	// failed, or the stream was rejected, aborted or shed.
	ok bool
}

// entry is one run-level reference value: a count, or the digest of a
// simulated output.
type entry struct {
	name  string
	value uint64
}

// simOutputs are the simulated end-to-end outcomes of a run. They repeat
// exactly for a seed.
type simOutputs struct {
	energyPerFrame float64
	iouMean        float64
	latP99         float64
	missRate       float64
}

// layerCounts are the simulated per-layer counts of a run: exact for a
// seed, so the bypass predictions can be checked as counts.
type layerCounts struct {
	// frames is the denominator of the loader, sched and predict rates:
	// every served frame on the fleets, the SHIFT cells' frames on paper.
	frames      int
	loads       int
	evictions   int
	loadFrames  int // frames that paid an engine load
	swaps       int
	utilization float64

	events        int64
	journalWrites int
	journalBytes  int64
	replayed      int
	prefetch      predict.Stats
}

// outcome is everything one run of a workload produces that the benchmark
// checks or reports.
type outcome struct {
	ops []op
	// reference lists the run-level values pinned for the default seed.
	reference []entry
	frames    int
	sim       simOutputs
	layer     layerCounts
	// attribution is the traced run's virtual-latency decomposition (fleet
	// workloads with a recorder attached).
	attribution *obs.Attribution
	// table holds the per-method Table III rows on paper.
	table []tableRow
}

// tableRow is one method's combined Table III summary.
type tableRow struct {
	method                string
	iou, timeSec, energyJ float64
	swaps                 int
}

// failedOps counts the operations of o that failed: not served, differing
// from the same operation of first (an earlier repetition with the same
// inputs; nil skips the comparison), or covered by a pinned reference entry
// whose value differs. A pinned entry names either one operation, which then
// fails alone, or a run-level value, whose mismatch fails every operation.
func failedOps(o, first *outcome, pinned []entry) int {
	bad := make([]bool, len(o.ops))
	index := make(map[string]int, len(o.ops))
	for i, p := range o.ops {
		index[p.name] = i
		if !p.ok {
			bad[i] = true
		}
	}
	if first != nil {
		if len(first.ops) != len(o.ops) {
			return len(o.ops)
		}
		for i := range o.ops {
			if o.ops[i].name != first.ops[i].name || o.ops[i].digest != first.ops[i].digest {
				bad[i] = true
			}
		}
	}
	got := make(map[string]uint64, len(o.reference))
	for _, e := range o.reference {
		got[e.name] = e.value
	}
	for _, want := range pinned {
		if v, ok := got[want.name]; ok && v == want.value {
			continue
		}
		if i, ok := index[want.name]; ok {
			bad[i] = true
			continue
		}
		return len(o.ops)
	}
	n := 0
	for _, b := range bad {
		if b {
			n++
		}
	}
	return n
}

// mismatches describes the pinned entries o differs from, for the error
// report of a failed check.
func mismatches(o *outcome, pinned []entry) string {
	got := make(map[string]uint64, len(o.reference))
	for _, e := range o.reference {
		got[e.name] = e.value
	}
	var parts []string
	for _, want := range pinned {
		v, ok := got[want.name]
		switch {
		case !ok:
			parts = append(parts, fmt.Sprintf("%s missing", want.name))
		case v != want.value:
			parts = append(parts, fmt.Sprintf("%s=%#x want %#x", want.name, v, want.value))
		}
	}
	return strings.Join(parts, ", ")
}
