package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestValidateRejectsBadFlags is the CLI smoke test for flag validation:
// unknown placement names and malformed numeric flags must produce a
// one-line error before any characterization work, never a panic mid-run.
func TestValidateRejectsBadFlags(t *testing.T) {
	ok := func() error {
		return validate(2, "residency-affinity", 16, 0.25, 0.1, 3, 8, 1300, 800, 0)
	}
	if err := ok(); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"unknown placement", validate(2, "bogus", 16, 0.25, 0.1, 3, 8, 1300, 800, 0), "unknown placement"},
		{"zero devices", validate(0, "round-robin", 16, 0.25, 0.1, 3, 8, 1300, 800, 0), "-devices"},
		{"negative streams", validate(2, "round-robin", -1, 0.25, 0.1, 3, 8, 1300, 800, 0), "-streams"},
		{"negative rate", validate(2, "round-robin", 16, -0.25, 0.1, 3, 8, 1300, 800, 0), "-rate"},
		{"zero period", validate(2, "round-robin", 16, 0.25, 0, 3, 8, 1300, 800, 0), "-period"},
		{"negative budget", validate(2, "round-robin", 16, 0.25, 0.1, -3, 8, 1300, 800, 0), "-budget"},
		{"bad queue", validate(2, "round-robin", 16, 0.25, 0.1, 3, -2, 1300, 800, 0), "-queue"},
		{"negative pool", validate(2, "round-robin", 16, 0.25, 0.1, 3, 8, -1, 800, 0), "-pool-mb"},
		{"zero val-frames", validate(2, "round-robin", 16, 0.25, 0.1, 3, 8, 1300, 0, 0), "-val-frames"},
		{"negative faults", validate(2, "round-robin", 16, 0.25, 0.1, 3, 8, 1300, 800, -6), "-faults"},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s accepted", c.name)
			continue
		}
		if !strings.Contains(c.err.Error(), c.want) {
			t.Errorf("%s: error %q does not name the flag (%q)", c.name, c.err, c.want)
		}
		if strings.ContainsRune(c.err.Error(), '\n') {
			t.Errorf("%s: multi-line error %q", c.name, c.err)
		}
	}
	// run() must refuse bad flags before characterizing: a bogus placement
	// returns (quickly) with the validation error, not a deep failure.
	none := map[string]bool{}
	if err := run(2, "1", "bogus", 16, 0.25, 0.1, 3, 8, 1300, 1, 800, false, 0, false, false, "", none); err == nil {
		t.Fatal("run accepted an unknown placement")
	} else if !strings.Contains(err.Error(), "unknown placement") {
		t.Fatalf("run surfaced the wrong error: %v", err)
	}
	// Malformed -scales fail in the same pre-characterization pass.
	if err := run(2, "1,-2", "round-robin", 16, 0.25, 0.1, 3, 8, 1300, 1, 800, false, 0, false, false, "", none); err == nil {
		t.Fatal("run accepted a negative scale")
	}
	// Mode combinations a run cannot honor are rejected, not ignored.
	if err := run(2, "1", "round-robin", 16, 0.25, 0.1, 3, 8, 1300, 1, 800, false, 6, true, false, "", none); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("-autoscale -faults accepted: %v", err)
	}
	if err := run(2, "1", "round-robin", 16, 0.25, 0.1, 3, 8, 1300, 1, 800, true, 0, true, false, "", none); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("-autoscale -sweep accepted: %v", err)
	}
	// -trace exports the single serving run's flight recording; grid modes
	// have no single run to trace, and both rejections are one-line errors.
	for _, c := range []struct {
		name             string
		sweep, autoscale bool
		faults           float64
	}{
		{"sweep", true, false, 0},
		{"autoscale", false, true, 0},
		{"faults", false, false, 6},
	} {
		err := run(2, "1", "round-robin", 16, 0.25, 0.1, 3, 8, 1300, 1, 800, c.sweep, c.faults, c.autoscale, false, "out.json", none)
		if err == nil || !strings.Contains(err.Error(), "-trace") {
			t.Fatalf("-trace -%s accepted: %v", c.name, err)
		}
		if strings.ContainsRune(err.Error(), '\n') {
			t.Fatalf("-trace -%s: multi-line error %q", c.name, err)
		}
	}
	// Coordinator mode serves out-of-process: -trace (and the grid modes)
	// are refused with a one-line error before any worker spawns.
	if err := validateWorkersMode(2, false, "", false, false, 0, "", false); err != nil {
		t.Fatalf("plain -workers rejected: %v", err)
	}
	if err := validateWorkersMode(2, false, "", false, false, 0, "out.json", false); err == nil ||
		!strings.Contains(err.Error(), "-trace") || !strings.Contains(err.Error(), "-workers") {
		t.Fatalf("-trace -workers accepted: %v", err)
	} else if strings.ContainsRune(err.Error(), '\n') {
		t.Fatalf("-trace -workers: multi-line error %q", err)
	}
	if err := validateWorkersMode(2, false, "", true, false, 0, "", false); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("-sweep -workers accepted: %v", err)
	}
	// A negative -workers is refused, not silently run in-process, and the
	// coordinator-only flags need -workers.
	if err := validateWorkersMode(-1, false, "", false, false, 0, "", false); err == nil ||
		!strings.Contains(err.Error(), "-workers") {
		t.Fatalf("-workers -1 accepted: %v", err)
	}
	for _, c := range []struct {
		name       string
		killOne    bool
		journalDir string
	}{
		{"kill-one", true, ""},
		{"journal-dir", false, "journal"},
	} {
		if err := validateWorkersMode(0, c.killOne, c.journalDir, false, false, 0, "", false); err == nil ||
			!strings.Contains(err.Error(), "require -workers") {
			t.Fatalf("-%s without -workers accepted: %v", c.name, err)
		}
	}
	if err := validateWorkersMode(0, false, "", false, false, 0, "", false); err != nil {
		t.Fatalf("in-process defaults rejected: %v", err)
	}
	// -prefetch runs its own two-pass contrast cell: grid modes, -trace and
	// -workers are all refused with one-line errors.
	for _, c := range []struct {
		name             string
		sweep, autoscale bool
		faults           float64
	}{
		{"sweep", true, false, 0},
		{"autoscale", false, true, 0},
		{"faults", false, false, 6},
	} {
		err := run(2, "1", "round-robin", 16, 0.25, 0.1, 3, 8, 1300, 1, 800, c.sweep, c.faults, c.autoscale, true, "", none)
		if err == nil || !strings.Contains(err.Error(), "-prefetch") {
			t.Fatalf("-prefetch -%s accepted: %v", c.name, err)
		}
		if strings.ContainsRune(err.Error(), '\n') {
			t.Fatalf("-prefetch -%s: multi-line error %q", c.name, err)
		}
	}
	if err := run(2, "1", "round-robin", 16, 0.25, 0.1, 3, 8, 1300, 1, 800, false, 0, false, true, "out.json", none); err == nil ||
		!strings.Contains(err.Error(), "-prefetch") || !strings.Contains(err.Error(), "-trace") {
		t.Fatalf("-trace -prefetch accepted: %v", err)
	}
	if err := validateWorkersMode(2, false, "", false, false, 0, "", true); err == nil ||
		!strings.Contains(err.Error(), "-prefetch") {
		t.Fatalf("-prefetch -workers accepted: %v", err)
	}
}

// TestRunServesEveryMode drives run() once per accepted mode on a small
// workload and checks each prints its report; the -trace file must parse as
// JSON.
func TestRunServesEveryMode(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	small := map[string]bool{"streams": true, "rate": true}
	for _, c := range []struct {
		name             string
		sweep, autoscale bool
		prefetch         bool
		faults           float64
		trace            string
		want             string
	}{
		{name: "single", want: "Fleet serving"},
		{name: "sweep", sweep: true, want: "Fleet serving"},
		{name: "faults", faults: 30, want: "Fault tolerance"},
		{name: "autoscale", autoscale: true, want: "Elastic autoscaling"},
		{name: "prefetch", prefetch: true, want: "Predictive prefetch"},
		{name: "trace", trace: tracePath, want: "wrote Chrome trace"},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, err := os.CreateTemp(dir, c.name)
			if err != nil {
				t.Fatal(err)
			}
			stdout := os.Stdout
			os.Stdout = out
			err = run(2, "1,1.25", "residency-affinity", 3, 1, 0.1, 3, 8, 1300, 1, 120,
				c.sweep, c.faults, c.autoscale, c.prefetch, c.trace, small)
			os.Stdout = stdout
			if err != nil {
				t.Fatal(err)
			}
			if err := out.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(out.Name())
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(got), c.want) {
				t.Fatalf("output lacks %q:\n%s", c.want, got)
			}
		})
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace holds no events")
	}
}
