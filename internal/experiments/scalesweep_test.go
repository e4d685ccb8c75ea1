package experiments

import (
	"strings"
	"testing"
)

// quickScaleSweepConfig shrinks the grid to unit-test size: a 4-device fleet
// serving 200 streams over a compressed two-minute "day", served twice.
func quickScaleSweepConfig() ScaleSweepConfig {
	cfg := DefaultScaleSweepConfig()
	cfg.Cells = []ScaleSweepCell{
		{Devices: 4, Streams: 200},
		{Devices: 4, Streams: 200},
	}
	cfg.SpanSec = 120
	return cfg
}

// TestScaleSweepRepeatAgrees pins the sweep's determinism: two runs of the
// same cell report bit-identical rows, and the trace actually saturates
// enough to measure (nonzero events, frames, horizon near the span).
func TestScaleSweepRepeatAgrees(t *testing.T) {
	env, err := Shared()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ScaleSweep(env, quickScaleSweepConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
	ref := res.Rows[0]
	if ref.Served == 0 || ref.Frames == 0 || ref.Events == 0 {
		t.Fatalf("reference cell served nothing: %+v", ref)
	}
	if ref.HorizonSec < ref.SpanSec/2 {
		t.Fatalf("horizon %.1fs never approached the %.0fs span — trace too sparse to measure",
			ref.HorizonSec, ref.SpanSec)
	}
	if row := res.Rows[1]; row != ref {
		t.Fatalf("repeat diverges:\n%+v\n%+v", ref, row)
	}
	if got, ok := res.Row(4); !ok || got != ref {
		t.Fatalf("Row(4) = %+v, %v; want the first 4-device row", got, ok)
	}
	if report := res.Report(); !strings.Contains(report, "p99_s") || strings.Count(report, "\n") != 2+len(res.Rows) {
		t.Fatalf("report missing header or rows:\n%s", report)
	}
}

// TestScaleSweepValidation covers the config contracts.
func TestScaleSweepValidation(t *testing.T) {
	env, err := Shared()
	if err != nil {
		t.Fatal(err)
	}
	bad := []func(*ScaleSweepConfig){
		func(c *ScaleSweepConfig) { c.DiurnalAmp = 1.5 },
		func(c *ScaleSweepConfig) { c.SpanSec = -1 },
		func(c *ScaleSweepConfig) { c.Cells = []ScaleSweepCell{{Devices: 0, Streams: 10}} },
		func(c *ScaleSweepConfig) { c.Cells = []ScaleSweepCell{{Devices: 2, Streams: -1}} },
	}
	for i, mut := range bad {
		cfg := quickScaleSweepConfig()
		mut(&cfg)
		if _, err := ScaleSweep(env, cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}
