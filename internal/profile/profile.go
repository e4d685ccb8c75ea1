// Package profile implements the offline characterization stage of SHIFT
// (paper §III-A): every model in the zoo is run over a validation set to
// collect its traits — per-frame (confidence, IoU) samples, average accuracy,
// success rate, and the latency/energy/load-cost profiles per accelerator.
//
// The outputs feed two consumers: the confidence graph (package confgraph) is
// built from the per-frame samples, and the scheduler (package sched) uses
// the normalized bigger-is-better energy/latency tables (Algorithm 1, lines
// 6-7).
package profile

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/accel"
	"repro/internal/detmodel"
	"repro/internal/par"
	"repro/internal/scene"
	"repro/internal/zoo"
)

// Sample is one model observation on one validation frame.
type Sample struct {
	FrameIndex int     `json:"frame"`
	Found      bool    `json:"found"`
	Conf       float64 `json:"conf"`
	IoU        float64 `json:"iou"`
}

// Traits are the characterization results for one model (paper §III-A:
// accuracy, confidence, latency, energy, loading cost).
type Traits struct {
	Model       string   `json:"model"`
	AvgIoU      float64  `json:"avg_iou"`
	SuccessRate float64  `json:"success_rate"` // fraction of frames with IoU >= 0.5
	AvgConf     float64  `json:"avg_conf"`
	Samples     []Sample `json:"samples"`
	// PerfByKind mirrors the zoo's execution profiles for reporting.
	PerfByKind map[string]zoo.Perf `json:"perf_by_kind"`
}

// PairKey identifies a (model, processor-kind) combination in normalized
// trait tables: the zoo's engine identity.
type PairKey = zoo.EngineKey

// Characterization is the full offline profiling result for a system.
type Characterization struct {
	// ByModel maps model name to its traits.
	ByModel map[string]*Traits `json:"by_model"`
	// EnergyScore and LatencyScore are the normalized, inverted
	// (bigger-is-better) per-pair tables of Algorithm 1 lines 6-7: the most
	// energy-hungry pair scores 0, the most frugal scores 1.
	EnergyScore  map[PairKey]float64 `json:"-"`
	LatencyScore map[PairKey]float64 `json:"-"`
}

// Characterize profiles every zoo model over the validation frames. The
// validation inference runs are an offline step, so they charge no cost to
// the system's virtual clock; only the behavioural outputs matter here.
//
// Models are profiled in parallel: each zoo entry's trait computation is a
// pure function of (model, frames, seed) — Detect derives its own stream
// from the frame salt — so per-model results land in disjoint slots and the
// outcome is identical to the sequential loop for any worker count
// (TestCharacterizeParallelMatchesSequential). The frame salts are shared
// across models instead of being rehashed per (model, frame).
func Characterize(sys *zoo.System, frames []scene.Frame) *Characterization {
	c := &Characterization{
		ByModel:      make(map[string]*Traits, len(sys.Entries)),
		EnergyScore:  map[PairKey]float64{},
		LatencyScore: map[PairKey]float64{},
	}
	salts := make([]uint64, len(frames))
	par.ForEach(len(frames), func(i int) {
		salts[i] = detmodel.FrameSalt(frames[i])
	})
	traits := make([]*Traits, len(sys.Entries))
	par.ForEach(len(sys.Entries), func(i int) {
		traits[i] = characterizeModel(sys.Entries[i], frames, salts, sys.Seed)
	})
	for _, t := range traits {
		c.ByModel[t.Model] = t
	}
	c.normalizePairScores(sys)
	return c
}

// characterizeModel computes one model's traits over the validation frames.
func characterizeModel(e *zoo.Entry, frames []scene.Frame, salts []uint64, seed uint64) *Traits {
	t := &Traits{
		Model:      e.Name(),
		Samples:    make([]Sample, 0, len(frames)),
		PerfByKind: map[string]zoo.Perf{},
	}
	for kind, p := range e.PerfByKind {
		t.PerfByKind[kind.String()] = p
	}
	var iouSum, confSum float64
	success := 0
	for i, f := range frames {
		det := e.Model.DetectSalted(f, seed, salts[i])
		t.Samples = append(t.Samples, Sample{
			FrameIndex: f.Index,
			Found:      det.Found,
			Conf:       det.Conf,
			IoU:        det.IoU,
		})
		iouSum += det.IoU
		confSum += det.Conf
		if det.IoU >= 0.5 {
			success++
		}
	}
	if n := len(frames); n > 0 {
		t.AvgIoU = iouSum / float64(n)
		t.AvgConf = confSum / float64(n)
		t.SuccessRate = float64(success) / float64(n)
	}
	return t
}

// normalizePairScores builds the bigger-is-better energy and latency tables
// over all runtime (model, kind) pairs.
func (c *Characterization) normalizePairScores(sys *zoo.System) {
	type rec struct {
		key     PairKey
		energy  float64
		latency float64
	}
	var recs []rec
	seen := map[PairKey]bool{}
	for _, p := range sys.RuntimePairs() {
		key := p.EngineKey()
		if seen[key] {
			continue
		}
		seen[key] = true
		e, err := sys.Entry(p.Model)
		if err != nil {
			continue
		}
		perf := e.PerfByKind[p.Kind]
		recs = append(recs, rec{key: key, energy: perf.EnergyJ(), latency: perf.LatencySec})
	}
	if len(recs) == 0 {
		return
	}
	minE, maxE := recs[0].energy, recs[0].energy
	minL, maxL := recs[0].latency, recs[0].latency
	for _, r := range recs[1:] {
		minE = min(minE, r.energy)
		maxE = max(maxE, r.energy)
		minL = min(minL, r.latency)
		maxL = max(maxL, r.latency)
	}
	for _, r := range recs {
		c.EnergyScore[r.key] = invertNorm(r.energy, minE, maxE)
		c.LatencyScore[r.key] = invertNorm(r.latency, minL, maxL)
	}
}

// invertNorm maps v in [lo, hi] to a bigger-is-better score in [0, 1].
func invertNorm(v, lo, hi float64) float64 {
	if hi <= lo {
		return 1
	}
	return 1 - (v-lo)/(hi-lo)
}

// ModelNames returns characterized model names in sorted order.
func (c *Characterization) ModelNames() []string {
	names := make([]string, 0, len(c.ByModel))
	for n := range c.ByModel {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// jsonDoc is the serialized form; pair-keyed maps are flattened to string
// keys for JSON.
type jsonDoc struct {
	ByModel      map[string]*Traits `json:"by_model"`
	EnergyScore  map[string]float64 `json:"energy_score"`
	LatencyScore map[string]float64 `json:"latency_score"`
}

func kindFromString(s string) (accel.Kind, error) {
	for _, k := range []accel.Kind{accel.KindCPU, accel.KindGPU, accel.KindDLA, accel.KindOAKD} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("profile: unknown kind %q", s)
}

// MarshalJSON flattens pair keys into "model/KIND" strings.
func (c *Characterization) MarshalJSON() ([]byte, error) {
	doc := jsonDoc{
		ByModel:      c.ByModel,
		EnergyScore:  map[string]float64{},
		LatencyScore: map[string]float64{},
	}
	for k, v := range c.EnergyScore {
		doc.EnergyScore[k.String()] = v
	}
	for k, v := range c.LatencyScore {
		doc.LatencyScore[k.String()] = v
	}
	return json.Marshal(doc)
}

// UnmarshalJSON restores pair keys from their string form.
func (c *Characterization) UnmarshalJSON(data []byte) error {
	var doc jsonDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	c.ByModel = doc.ByModel
	c.EnergyScore = map[PairKey]float64{}
	c.LatencyScore = map[PairKey]float64{}
	parse := func(raw map[string]float64, dst map[PairKey]float64) error {
		for s, v := range raw {
			i := lastSlash(s)
			if i < 0 {
				return fmt.Errorf("profile: malformed pair key %q", s)
			}
			kind, err := kindFromString(s[i+1:])
			if err != nil {
				return err
			}
			dst[PairKey{Model: s[:i], Kind: kind}] = v
		}
		return nil
	}
	if err := parse(doc.EnergyScore, c.EnergyScore); err != nil {
		return err
	}
	return parse(doc.LatencyScore, c.LatencyScore)
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
}
