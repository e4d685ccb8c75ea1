// Command shiftbench is the repository's benchmark: one instrument that
// later performance and simplicity changes are measured against. It runs one
// of three named workloads through the public API of the simulator's
// packages, checks that every simulated output is correct, and prints the
// workload's metrics by name and unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the module root):
//
//	go run ./shiftbench --workload paper --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced runs; --trace 1 runs
// the separate traced session and reports the per-layer metrics. The exit
// status is non-zero when a correctness check fails or a run errors.
// shiftbench/README.md documents every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"strings"
	"testing"
	"time"
)

const (
	// defaultSeed is the workload seed the reference digests are pinned
	// for.
	defaultSeed = 1
	// heldOutSeed is kept out of use while changes are written; every claim
	// made against defaultSeed must also hold on it.
	heldOutSeed = 7919
	// setupRepeats is how many times a run sets its workload up; setup_s
	// reports the median.
	setupRepeats = 3
	// minReps is the fewest measured repetitions of a run.
	minReps = 3
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	pin      bool
}

func main() {
	testing.Init()
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "paper", "workload to run: paper, fleet-day or fleet-churn")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, fmt.Sprintf(
		"workload seed; reference digests are pinned for %d, and %d is the held-out seed", defaultSeed, heldOutSeed))
	flag.IntVar(&o.seconds, "seconds", 10, "host seconds of measured repetitions")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from the traced session")
	flag.BoolVar(&o.pin, "pin", false, "print the workload's reference values for --seed as Go source and exit")
	flag.Parse()
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		fatal(err)
	}
	if trace != 0 && trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, got %d", trace))
	}
	o.trace = trace == 1
	if o.seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1, got %d", o.seconds))
	}
	if n := goruntime.NumCPU(); goruntime.GOMAXPROCS(0) > n {
		goruntime.GOMAXPROCS(n)
	}

	rep, err := benchmark(o, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if o.pin {
		return
	}
	if err := rep.write(os.Stdout); err != nil {
		fatal(err)
	}
	if !rep.correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "shiftbench:", err)
	os.Exit(2)
}

// report is one run's result.
type report struct {
	correct           bool
	attempted, failed int
	defs              []metricDef
	values            values
	notes             []string
}

// write prints the human-readable table, then the result object as the
// last line.
func (r *report) write(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	var parts []string
	for _, d := range r.defs {
		v := r.values[d.name]
		fmt.Fprintf(w, "  %-40s %16.6g %s\n", d.name, v, d.unit)
		b, err := json.Marshal(metric{Value: v, Unit: d.unit})
		if err != nil {
			return err
		}
		parts = append(parts, fmt.Sprintf("%q: %s", d.name, b))
	}
	_, err := fmt.Fprintf(w, "{\"correct\": %t, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n",
		r.correct, r.attempted, r.failed, strings.Join(parts, ", "))
	return err
}

// bench is one benchmark session's state.
type bench struct {
	clk    clock
	o      options
	w      workload
	pinned []entry
	// ref is the session's first (warm-up) run; every later run must equal
	// it operation for operation.
	ref               *outcome
	attempted, failed int
	problems          []string
}

// check counts o's operations and failures, and records why any failed.
func (b *bench) check(o *outcome, what string) {
	n := failedOps(o, b.ref, b.pinned)
	b.attempted += len(o.ops)
	b.failed += n
	if n == 0 {
		return
	}
	msg := fmt.Sprintf("%s: %d of %d operations failed", what, n, len(o.ops))
	if d := mismatches(o, b.pinned); d != "" {
		msg += " (reference mismatch: " + d + ")"
	}
	b.problems = append(b.problems, msg)
}

// benchmark runs the session o describes under the host clock. With o.pin it
// prints the reference values to w instead.
func benchmark(o options, w io.Writer) (*report, error) {
	wl, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want paper, fleet-day or fleet-churn)", o.workload)
	}
	var rep *report
	err := withClock(func(clk clock) error {
		b := &bench{clk: clk, o: o, w: wl}
		if o.seed == defaultSeed && !o.pin {
			if b.pinned = pinned(o.workload); len(b.pinned) == 0 {
				return fmt.Errorf("no reference pinned for %s", o.workload)
			}
		}
		var err error
		switch {
		case o.pin:
			err = b.pin(w)
		case o.trace:
			rep, err = b.traced()
		default:
			rep, err = b.timed()
		}
		return err
	})
	return rep, err
}

// setup sets the workload up setupRepeats times and keeps the last instance.
func (b *bench) setup() (instance, []setupTimes, error) {
	var inst instance
	setups := make([]setupTimes, setupRepeats)
	for i := range setups {
		inst = nil
		goruntime.GC()
		var err error
		if inst, err = b.w.setup(b.o.seed, b.clk, &setups[i]); err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", b.o.workload, err)
		}
	}
	return inst, setups, nil
}

// reference runs the warm-up repetition, checks it against the pinned
// digests and makes it the session's reference.
func (b *bench) reference(inst instance) error {
	goruntime.GC()
	o, err := inst.run(b.clk, nil, false)
	if err != nil {
		return err
	}
	b.check(o, "warm-up run")
	b.ref = o
	return nil
}

// timed measures untraced repetitions for o.seconds and reports the
// end-to-end metrics.
func (b *bench) timed() (*report, error) {
	inst, setups, err := b.setup()
	if err != nil {
		return nil, err
	}
	if err := b.reference(inst); err != nil {
		return nil, err
	}
	var runs timedRuns
	limit := time.Duration(b.o.seconds) * time.Second
	start := b.clk.now()
	for len(runs.framesPerSec) < minReps || b.clk.since(start) < limit {
		goruntime.GC()
		h0 := readHeap()
		t0 := b.clk.now()
		o, err := inst.run(b.clk, nil, false)
		dt := b.clk.since(t0)
		h1 := readHeap()
		if err != nil {
			return nil, err
		}
		b.check(o, "timed run")
		frames := float64(o.frames)
		runs.framesPerSec = append(runs.framesPerSec, frames/dt.Seconds())
		runs.allocsPerFrame = append(runs.allocsPerFrame, float64(h1.mallocs-h0.mallocs)/frames)
		runs.bytesPerFrame = append(runs.bytesPerFrame, float64(h1.bytes-h0.bytes)/frames)
	}
	rep := b.report(endToEnd, endToEndValues(b.ref, runs, setups))
	rep.notes = append(rep.notes, fmt.Sprintf("%d timed repetitions, frames/s %.6g",
		len(runs.framesPerSec), runs.framesPerSec))
	return rep, nil
}

// traced measures the traced session: untraced, recorder-attached (fleet
// workloads) and traced repetitions alternate for o.seconds, then the micro
// rows run. It reports the per-layer metrics.
func (b *bench) traced() (*report, error) {
	inst, setups, err := b.setup()
	if err != nil {
		return nil, err
	}
	if err := b.reference(inst); err != nil {
		return nil, err
	}
	_, isFleet := inst.(*fleetInstance)
	runs := &tracedRuns{procs: goruntime.GOMAXPROCS(0)}
	timeRun := func(tr *tracer, record bool, what string) (*outcome, float64, error) {
		goruntime.GC()
		t0 := b.clk.now()
		o, err := inst.run(b.clk, tr, record)
		dt := b.clk.since(t0)
		if err != nil {
			return nil, 0, err
		}
		b.check(o, what)
		return o, dt.Seconds(), nil
	}
	limit := time.Duration(b.o.seconds) * time.Second
	start := b.clk.now()
	for len(runs.traced) < minReps || b.clk.since(start) < limit {
		g0 := readGC()
		o, dt, err := timeRun(nil, false, "untraced run")
		if err != nil {
			return nil, err
		}
		g1 := readGC()
		runs.plain = append(runs.plain, dt)
		runs.plainFrames += o.frames
		runs.gc.cycles += g1.cycles - g0.cycles
		runs.gc.gcCPU += g1.gcCPU - g0.gcCPU
		runs.gc.totalCPU += g1.totalCPU - g0.totalCPU

		// The recorder runs in repetitions of its own, so its cost shows in
		// obs.attach_overhead_frac and stays out of the layer times.
		if isFleet {
			if o, dt, err = timeRun(nil, true, "recorder-attached run"); err != nil {
				return nil, err
			}
			runs.recorded = append(runs.recorded, dt)
			runs.attribution = o.attribution
		}

		tr := &tracer{clk: b.clk}
		if _, dt, err = timeRun(tr, false, "traced run"); err != nil {
			return nil, err
		}
		runs.traced = append(runs.traced, dt)
		runs.layer.add(&tr.layerTimes)
	}
	var m microTimes
	if err := inst.micro(b.clk, &m); err != nil {
		return nil, err
	}
	rep := b.report(perLayer, perLayerValues(b.ref, runs, &m, setups))
	rep.notes = append(rep.notes, fmt.Sprintf("%d traced rounds", len(runs.traced)))
	return rep, nil
}

// report assembles the result object and the notes describing the run.
func (b *bench) report(defs []metricDef, v values) *report {
	ref := "none (repetitions checked against the first)"
	if b.pinned != nil {
		ref = "pinned digests"
	}
	rep := &report{
		correct:   b.failed == 0,
		attempted: b.attempted,
		failed:    b.failed,
		defs:      defs,
		values:    v,
		notes: []string{fmt.Sprintf("shiftbench: workload=%s seed=%d trace=%t gomaxprocs=%d reference=%s",
			b.o.workload, b.o.seed, b.o.trace, goruntime.GOMAXPROCS(0), ref)},
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "shiftbench: check failed:", p)
	}
	return rep
}

// pin prints the reference values of one run at o.seed as Go source for
// reference.go.
func (b *bench) pin(w io.Writer) error {
	var st setupTimes
	inst, err := b.w.setup(b.o.seed, b.clk, &st)
	if err != nil {
		return err
	}
	o, err := inst.run(b.clk, nil, false)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\t%q: {\n", b.o.workload)
	for _, e := range o.reference {
		fmt.Fprintf(w, "\t\t{%q, %#x},\n", e.name, e.value)
	}
	fmt.Fprintln(w, "\t},")
	return nil
}
