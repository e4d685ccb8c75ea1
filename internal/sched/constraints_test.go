package sched

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/detmodel"
	"repro/internal/zoo"
)

func TestConstraintValidation(t *testing.T) {
	f := fx(t)
	cfg := DefaultConfig()
	cfg.MaxLatencySec = -1
	if _, err := New(f.sys, f.ch, f.graph, cfg); err == nil {
		t.Fatal("negative latency constraint should fail")
	}
	cfg = DefaultConfig()
	cfg.MaxEnergyJ = -1
	if _, err := New(f.sys, f.ch, f.graph, cfg); err == nil {
		t.Fatal("negative energy constraint should fail")
	}
}

func TestUnsatisfiableConstraints(t *testing.T) {
	f := fx(t)
	cfg := DefaultConfig()
	cfg.MaxLatencySec = 0.001 // faster than every pair in the zoo
	if _, err := New(f.sys, f.ch, f.graph, cfg); err == nil {
		t.Fatal("unsatisfiable constraint should fail at construction")
	}
}

func TestLatencyConstraintFiltersPairs(t *testing.T) {
	f := fx(t)
	cfg := DefaultConfig()
	cfg.MaxLatencySec = 0.05 // only the sub-50ms pairs survive
	s, err := New(f.sys, f.ch, f.graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Pairs() {
		e, err := f.sys.Entry(p.Model)
		if err != nil {
			t.Fatal(err)
		}
		if lat := e.PerfByKind[p.Kind].LatencySec; lat > 0.05 {
			t.Fatalf("pair %v (latency %v) violates the constraint", p, lat)
		}
	}
	// YoloV7 on GPU (0.130 s) must be gone; Tiny on GPU (0.025 s) kept.
	for _, p := range s.Pairs() {
		if p.Model == detmodel.YoloV7 && p.Kind == accel.KindGPU {
			t.Fatal("constraint did not exclude YoloV7@GPU")
		}
	}
	tinyKept := false
	for _, p := range s.Pairs() {
		if p.Model == detmodel.YoloV7Tiny && p.Kind == accel.KindGPU {
			tinyKept = true
		}
	}
	if !tinyKept {
		t.Fatal("constraint wrongly excluded YoloV7-Tiny@GPU")
	}
}

func TestEnergyConstraintFiltersPairs(t *testing.T) {
	f := fx(t)
	cfg := DefaultConfig()
	cfg.MaxEnergyJ = 0.3
	s, err := New(f.sys, f.ch, f.graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Pairs()) == 0 {
		t.Fatal("no pairs under a satisfiable constraint")
	}
	for _, p := range s.Pairs() {
		e, err := f.sys.Entry(p.Model)
		if err != nil {
			t.Fatal(err)
		}
		if en := e.PerfByKind[p.Kind].EnergyJ(); en > 0.3 {
			t.Fatalf("pair %v (energy %v) violates the constraint", p, en)
		}
	}
}

func TestConstrainedDecisionsStayAdmissible(t *testing.T) {
	f := fx(t)
	cfg := DefaultConfig()
	cfg.MaxEnergyJ = 0.5
	s, err := New(f.sys, f.ch, f.graph, cfg)
	if err != nil {
		t.Fatal(err)
	}
	admissible := map[zoo.EngineKey]bool{}
	for _, p := range s.Pairs() {
		admissible[p.EngineKey()] = true
	}
	cur := s.Pairs()[0]
	for i := 0; i < 40; i++ {
		var frame = hardFrame(700 + i)
		if i%2 == 0 {
			frame = easyFrame(700 + i)
		}
		dec := s.Decide(cur, detect(t, f, cur.Model, frame), frame)
		cur = dec.Pair
		if !admissible[cur.EngineKey()] {
			t.Fatalf("decision %d picked inadmissible pair %v", i, cur)
		}
	}
}
