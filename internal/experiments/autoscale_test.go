package experiments

import (
	"testing"
)

// quickAutoscaleConfig restricts the grid to the flagship placement so unit
// tests stay fast; shapes, rates and the controller keep their defaults —
// the same cells the BENCH auto_* headline pins.
func quickAutoscaleConfig() AutoscaleSweepConfig {
	cfg := DefaultAutoscaleSweepConfig()
	cfg.Placements = []string{"residency-affinity"}
	return cfg
}

// TestAutoscaleSweepElasticBeatsFixedBurst pins the acceptance criteria:
// under the burst shape, the elastic fleet's scale-out cuts p99 frame
// latency against the fixed 4-device reference (and eliminates the
// admission-queue wait); under the diurnal shape, at least one drain-based
// scale-in migrates a live session; and no cell leaks a residency reference.
func TestAutoscaleSweepElasticBeatsFixedBurst(t *testing.T) {
	env, err := Shared()
	if err != nil {
		t.Fatal(err)
	}
	res, err := AutoscaleSweep(env, quickAutoscaleConfig())
	if err != nil {
		t.Fatal(err)
	}
	fixed, ok := res.Row("burst", "residency-affinity", "fixed")
	if !ok {
		t.Fatal("missing fixed burst row")
	}
	elastic, ok := res.Row("burst", "residency-affinity", "elastic")
	if !ok {
		t.Fatal("missing elastic burst row")
	}
	if fixed.ScaleOuts != 0 || fixed.ScaleIns != 0 || fixed.PeakDevices != 4 {
		t.Fatalf("fixed row reports elastic activity: %+v", fixed.Summary)
	}
	if elastic.ScaleOuts == 0 {
		t.Fatal("elastic burst cell never scaled out")
	}
	if elastic.PeakDevices <= fixed.PeakDevices {
		t.Fatalf("elastic peak %d devices never exceeded the fixed %d",
			elastic.PeakDevices, fixed.PeakDevices)
	}
	if elastic.Latency.P99 >= fixed.Latency.P99 {
		t.Fatalf("scale-out did not cut burst p99: elastic %.3fs vs fixed %.3fs",
			elastic.Latency.P99, fixed.Latency.P99)
	}
	if elastic.AvgQueueDelaySec >= fixed.AvgQueueDelaySec {
		t.Fatalf("scale-out did not cut the admission queue: elastic %.2fs vs fixed %.2fs",
			elastic.AvgQueueDelaySec, fixed.AvgQueueDelaySec)
	}

	diurnal, ok := res.Row("diurnal", "residency-affinity", "elastic")
	if !ok {
		t.Fatal("missing elastic diurnal row")
	}
	if diurnal.ScaleIns < 1 {
		t.Fatal("diurnal elastic cell never scaled in")
	}
	if diurnal.Drained < 1 || diurnal.Migrations < 1 {
		t.Fatalf("no drain-based scale-in migrated a live session: drained %d, migrations %d",
			diurnal.Drained, diurnal.Migrations)
	}
	for _, row := range res.Rows {
		if row.LeakedRefs != 0 {
			t.Fatalf("%s×%s×%s leaked %d residency refs", row.Shape, row.Placement, row.Mode, row.LeakedRefs)
		}
		if got := row.Served + row.Aborted + row.Rejected; got != row.Offered {
			t.Fatalf("%s×%s×%s stream accounting: %d != offered %d",
				row.Shape, row.Placement, row.Mode, got, row.Offered)
		}
	}
	if report := res.Report(); len(report) == 0 {
		t.Fatal("empty report")
	}
}

// TestAutoscaleSweepDeterministic: the elastic grid replays bit-identically
// — the controller adds no nondeterminism.
func TestAutoscaleSweepDeterministic(t *testing.T) {
	env, err := Shared()
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickAutoscaleConfig()
	cfg.Shapes = []string{"burst"}
	a, err := AutoscaleSweep(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AutoscaleSweep(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if a.Rows[i].Summary != b.Rows[i].Summary || a.Rows[i].HorizonSec != b.Rows[i].HorizonSec {
			t.Fatalf("row %d differs across identical runs:\n%+v\n%+v", i, a.Rows[i], b.Rows[i])
		}
	}
}

// TestAutoscaleSweepValidation covers the grid's argument contracts.
func TestAutoscaleSweepValidation(t *testing.T) {
	env, err := Shared()
	if err != nil {
		t.Fatal(err)
	}
	bad := []func(*AutoscaleSweepConfig){
		func(c *AutoscaleSweepConfig) { c.Shapes = []string{"square-wave"} },
		func(c *AutoscaleSweepConfig) { c.Placements = []string{"nope"} },
		func(c *AutoscaleSweepConfig) { c.FixedDevices = -1 },
		func(c *AutoscaleSweepConfig) { c.Workload.RatePerSec = -1 },
	}
	for i, mut := range bad {
		cfg := quickAutoscaleConfig()
		cfg.Shapes = []string{"burst"}
		mut(&cfg)
		if _, err := AutoscaleSweep(env, cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}
