//go:build !race

package sched

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/detmodel"
)

// TestDecideAllocationFree pins the per-frame decision path at zero heap
// allocations once the scheduler is warm, on both outcomes: the NCC gate
// keeping the pair, and a full re-schedule that shifts every momentum
// window past its Momentum capacity.
func TestDecideAllocationFree(t *testing.T) {
	f := fx(t)
	for _, tc := range []struct {
		name       string
		goal       float64
		reschedule bool
	}{
		{"gate-pass", 0.25, false},
		// No confidence reaches a 0.99 goal: the gate opens on every frame.
		{"reschedule", 0.99, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.AccuracyThreshold = tc.goal
			s := newSched(t, cfg)
			cur := pairFor(t, s, detmodel.YoloV7, accel.KindGPU)
			frame := easyFrame(3)
			det := detect(t, f, cur.Model, frame)
			for i := 0; i < 2*s.cfg.Momentum; i++ { // warm-up: fill every window
				s.Decide(cur, det, frame)
			}
			if dec := s.Decide(cur, det, frame); dec.Rescheduled != tc.reschedule {
				t.Fatalf("Rescheduled = %v, want %v", dec.Rescheduled, tc.reschedule)
			}
			if n := testing.AllocsPerRun(100, func() { s.Decide(cur, det, frame) }); n != 0 {
				t.Fatalf("Decide allocates %v times per call", n)
			}
		})
	}
}
