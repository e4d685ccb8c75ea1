package main

import (
	"sort"
	"time"

	"repro/internal/confgraph"
	"repro/internal/experiments"
	"repro/internal/profile"
	"repro/internal/scene"
	"repro/internal/zoo"
)

// charSeed seeds the offline characterization on every workload: the
// workload seed varies the rendered frames and the generated load, never
// the zoo profile the scheduler decides from.
const charSeed = 1

// workload is one named benchmark workload.
type workload struct {
	name  string
	setup func(seed uint64, clk clock, st *setupTimes) (instance, error)
}

// instance is a set-up workload, ready to run. A run receives only the
// inputs its set-up built; rendering and generation never happen inside it.
type instance interface {
	// run serves the workload once. tr (nil: untraced) collects host time at
	// the layer boundaries; record attaches the flight recorder to the fleet
	// workloads.
	run(clk clock, tr *tracer, record bool) (*outcome, error)
	// micro times the public calls of the layers the workload exercises on
	// inputs drawn from its own frames.
	micro(clk clock, m *microTimes) error
}

var workloads = []workload{
	{name: "paper", setup: setupPaper},
	{name: "fleet-day", setup: setupFleetDay},
	{name: "fleet-churn", setup: setupFleetChurn},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupTimes splits one set-up's host time by stage.
type setupTimes struct {
	characterize, graph, render, generate time.Duration
	renderedFrames                        int
}

func (s setupTimes) total() time.Duration {
	return s.characterize + s.graph + s.render + s.generate
}

// characterize profiles the default zoo on the validation set and builds the
// confidence graph, exactly as experiments.NewEnv does.
func characterize(clk clock, st *setupTimes) (*profile.Characterization, *confgraph.Graph, error) {
	t0 := clk.now()
	ch := profile.Characterize(zoo.Default(charSeed),
		scene.ValidationSet(charSeed, experiments.DefaultValidationFrames))
	st.characterize = clk.since(t0)
	t0 = clk.now()
	graph, err := confgraph.Build(ch, confgraph.DefaultOptions())
	st.graph = clk.since(t0)
	return ch, graph, err
}

// render renders each scenario with the workload seed.
func render(clk clock, st *setupTimes, scenarios []*scene.Scenario, seed uint64) [][]scene.Frame {
	t0 := clk.now()
	out := make([][]scene.Frame, len(scenarios))
	for i, sc := range scenarios {
		out[i] = sc.Render(seed)
		st.renderedFrames += len(out[i])
	}
	st.render = clk.since(t0)
	return out
}

// procIDs lists a system's processors in name order.
func procIDs(sys *zoo.System) []string {
	ids := make([]string, 0, len(sys.SoC.Procs))
	for id := range sys.SoC.Procs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
