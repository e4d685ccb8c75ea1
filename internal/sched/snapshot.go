package sched

import (
	"fmt"

	"repro/internal/img"
)

// State is a portable checkpoint of a scheduler's per-stream decision state:
// the momentum buffers and averages, the NCC history (previous frame, previous
// box crop and their cached pixel moments) and the crop double-buffer phase.
// It is what session migration carries across devices — the decision state is
// content-derived, never platform-derived, so a scheduler restored on another
// device of the same zoo decides identically to the one it was taken from.
//
// Momentum entries are keyed by model name, not buffer index, so a snapshot
// restores correctly into any scheduler built over the same zoo regardless of
// interning order.
type State struct {
	models           []string
	bufs             [][]float64
	rVals            []float64
	rSet             []bool
	valid            []bool
	lastImg          *img.Image
	lastBox          *img.Image
	imgSum, imgSumSq uint64
	boxSum, boxSumSq uint64
	boxFlip          int
}

// Snapshot captures the scheduler's per-stream decision state. The momentum
// windows are deep-copied and the previous box crop is cloned (it aliases a
// scratch buffer the live scheduler keeps rewriting); the previous frame image
// is shared, since rendered frames are immutable.
func (s *Scheduler) Snapshot() *State {
	st := &State{
		models:   append([]string(nil), s.modelNames...),
		bufs:     make([][]float64, len(s.bufs)),
		rVals:    append([]float64(nil), s.rVals...),
		rSet:     append([]bool(nil), s.rSet...),
		valid:    append([]bool(nil), s.valid...),
		lastImg:  s.lastImg,
		imgSum:   s.lastImgSum,
		imgSumSq: s.lastImgSumSq,
		boxSum:   s.lastBoxSum,
		boxSumSq: s.lastBoxSumSq,
		boxFlip:  s.boxFlip,
	}
	for i, buf := range s.bufs {
		st.bufs[i] = append([]float64(nil), buf...)
	}
	if s.lastBox != nil {
		st.lastBox = s.lastBox.Clone()
	}
	return st
}

// StateData is the exported, serialization-friendly view of a State: every
// field a durable wire format must carry to rebuild the decision state on
// another process. Slices and images are shared with the State it came from —
// callers serialize or copy, they do not mutate.
type StateData struct {
	// Models keys the momentum entries: Bufs[i], RVals[i], RSet[i] and
	// Valid[i] belong to Models[i], so interning order never matters.
	Models []string
	Bufs   [][]float64
	RVals  []float64
	RSet   []bool
	Valid  []bool
	// LastImg and LastBox are the NCC history (previous frame and previous
	// box crop) with their cached pixel moments.
	LastImg, LastBox *img.Image
	ImgSum, ImgSumSq uint64
	BoxSum, BoxSumSq uint64
	BoxFlip          int
}

// Data exposes the snapshot for serialization.
func (st *State) Data() *StateData {
	return &StateData{
		Models:   st.models,
		Bufs:     st.bufs,
		RVals:    st.rVals,
		RSet:     st.rSet,
		Valid:    st.valid,
		LastImg:  st.lastImg,
		LastBox:  st.lastBox,
		ImgSum:   st.imgSum,
		ImgSumSq: st.imgSumSq,
		BoxSum:   st.boxSum,
		BoxSumSq: st.boxSumSq,
		BoxFlip:  st.boxFlip,
	}
}

// StateFromData rebuilds a State from its serialized view — the decode half
// of the durable checkpoint format. The per-model slices must be mutually
// consistent (one entry per model); Restore tolerates models unknown to the
// target zoo by interning them, exactly as the live path does.
func StateFromData(d *StateData) (*State, error) {
	n := len(d.Models)
	if len(d.Bufs) != n || len(d.RVals) != n || len(d.RSet) != n || len(d.Valid) != n {
		return nil, fmt.Errorf("sched: inconsistent state data: %d models, %d/%d/%d/%d momentum entries",
			n, len(d.Bufs), len(d.RVals), len(d.RSet), len(d.Valid))
	}
	return &State{
		models:   d.Models,
		bufs:     d.Bufs,
		rVals:    d.RVals,
		rSet:     d.RSet,
		valid:    d.Valid,
		lastImg:  d.LastImg,
		lastBox:  d.LastBox,
		imgSum:   d.ImgSum,
		imgSumSq: d.ImgSumSq,
		boxSum:   d.BoxSum,
		boxSumSq: d.BoxSumSq,
		boxFlip:  d.BoxFlip,
	}, nil
}

// Restore replaces the scheduler's per-stream decision state with a snapshot,
// as Reset replaces it with the fresh-stream state: after Restore the
// scheduler decides exactly as the snapshotted one would have (pinned by
// TestSnapshotRestoreMatchesUninterrupted). Models unknown to this scheduler's
// zoo are interned on the fly, mirroring Decide's own behavior.
func (s *Scheduler) Restore(st *State) {
	s.Reset()
	for i, name := range st.models {
		idx := s.internModel(name)
		if len(st.bufs[i]) > 0 {
			s.bufs[idx] = append(s.window(idx), st.bufs[i]...)
		}
		s.rVals[idx] = st.rVals[i]
		s.rSet[idx] = st.rSet[i]
		s.valid[idx] = st.valid[i]
	}
	s.lastImg, s.lastImgSum, s.lastImgSumSq = st.lastImg, st.imgSum, st.imgSumSq
	s.lastBox, s.lastBoxSum, s.lastBoxSumSq = st.lastBox, st.boxSum, st.boxSumSq
	s.boxFlip = st.boxFlip
}
