package sched

import "repro/internal/img"

// State is a portable checkpoint of a scheduler's per-stream decision state:
// the momentum buffers and averages, the NCC history (previous frame, previous
// box crop and their cached pixel moments) and the crop double-buffer phase.
// It is what session migration carries across devices — the decision state is
// content-derived, never platform-derived, so a scheduler restored on another
// device of the same zoo decides identically to the one it was taken from.
// The durable wire format (internal/checkpoint) reads and writes these
// fields directly.
type State struct {
	// Models keys the momentum entries: Bufs[i], RVals[i], RSet[i] and
	// Valid[i] belong to Models[i], so a snapshot restores correctly into
	// any scheduler built over the same zoo regardless of interning order.
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

// Snapshot captures the scheduler's per-stream decision state. The momentum
// windows are deep-copied and the previous box crop is cloned (it aliases a
// scratch buffer the live scheduler keeps rewriting); the previous frame image
// is shared, since rendered frames are immutable.
func (s *Scheduler) Snapshot() *State {
	st := &State{
		Models:   append([]string(nil), s.modelNames...),
		Bufs:     make([][]float64, len(s.bufs)),
		RVals:    append([]float64(nil), s.rVals...),
		RSet:     append([]bool(nil), s.rSet...),
		Valid:    append([]bool(nil), s.valid...),
		LastImg:  s.lastImg,
		ImgSum:   s.lastImgSum,
		ImgSumSq: s.lastImgSumSq,
		BoxSum:   s.lastBoxSum,
		BoxSumSq: s.lastBoxSumSq,
		BoxFlip:  s.boxFlip,
	}
	for i, buf := range s.bufs {
		st.Bufs[i] = append([]float64(nil), buf...)
	}
	if s.lastBox != nil {
		st.LastBox = s.lastBox.Clone()
	}
	return st
}

// Restore replaces the scheduler's per-stream decision state with a snapshot,
// as Reset replaces it with the fresh-stream state: after Restore the
// scheduler decides exactly as the snapshotted one would have (pinned by
// TestSnapshotRestoreMatchesUninterrupted). Models unknown to this scheduler's
// zoo are interned on the fly, mirroring Decide's own behavior. The per-model
// slices must hold one entry per model, as Snapshot and checkpoint decoding
// build them.
func (s *Scheduler) Restore(st *State) {
	s.Reset()
	for i, name := range st.Models {
		idx := s.internModel(name)
		if len(st.Bufs[i]) > 0 {
			s.bufs[idx] = append(s.window(idx), st.Bufs[i]...)
		}
		s.rVals[idx] = st.RVals[i]
		s.rSet[idx] = st.RSet[i]
		s.valid[idx] = st.Valid[i]
	}
	s.lastImg, s.lastImgSum, s.lastImgSumSq = st.LastImg, st.ImgSum, st.ImgSumSq
	s.lastBox, s.lastBoxSum, s.lastBoxSumSq = st.LastBox, st.BoxSum, st.BoxSumSq
	s.boxFlip = st.BoxFlip
}
