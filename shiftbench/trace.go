package main

import (
	"time"

	"repro/internal/fleet"
	"repro/internal/runtime"
	"repro/internal/zoo"
)

// tracer carries a traced run's host clock and the time it accumulates at
// each layer boundary. Traced runs are separate from the timed ones; every
// wrapper only forwards, so a traced run's simulated outputs must equal the
// untraced run's bit for bit (checked on every traced run).
type tracer struct {
	clk clock
	layerTimes
}

// policyTimes is host time spent inside runtime.Policy callbacks.
type policyTimes struct {
	step  time.Duration
	steps int
	// other covers the factory, Reset, SnapshotState and RestoreState.
	other time.Duration
}

func (p *policyTimes) add(o policyTimes) {
	p.step += o.step
	p.steps += o.steps
	p.other += o.other
}

// layerTimes is the host time of one or more traced runs, by layer.
type layerTimes struct {
	policy policyTimes

	// acquire and exec time Step.Acquire and Step.Exec inside the fleet-day
	// monitor policy.
	acquire, exec   time.Duration
	acquires, execs int

	// fleetRun is host time under Fleet.Run/RunWithFaults; depart is the
	// part of it inside the OnDepart hook.
	fleetRun time.Duration
	events   int64
	depart   time.Duration
	departs  int

	// cell and cellFrames are host time and frames of the paper cells per
	// method.
	cell       [len(methodKeys)]time.Duration
	cellFrames [len(methodKeys)]int

	// parBusy sums the host time of the cells a run fans out over the par
	// pool (paper's grid, fleet-churn's fleets); parWall is the wall time of
	// the fan-out.
	parBusy, parWall time.Duration
}

func (l *layerTimes) add(o *layerTimes) {
	l.policy.add(o.policy)
	l.acquire += o.acquire
	l.exec += o.exec
	l.acquires += o.acquires
	l.execs += o.execs
	l.fleetRun += o.fleetRun
	l.events += o.events
	l.depart += o.depart
	l.departs += o.departs
	for i := range l.cell {
		l.cell[i] += o.cell[i]
		l.cellFrames[i] += o.cellFrames[i]
	}
	l.parBusy += o.parBusy
	l.parWall += o.parWall
}

// since returns the host time elapsed from t0.
func (c clock) since(t0 time.Duration) time.Duration { return c.now() - t0 }

// tracedPolicy forwards to a runtime.Policy and times each callback.
type tracedPolicy struct {
	inner runtime.Policy
	clk   clock
	t     *policyTimes
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Reset(e *runtime.Engine) error {
	t0 := p.clk.now()
	err := p.inner.Reset(e)
	p.t.other += p.clk.since(t0)
	return err
}

func (p *tracedPolicy) Step(st *runtime.Step) error {
	t0 := p.clk.now()
	err := p.inner.Step(st)
	p.t.step += p.clk.since(t0)
	p.t.steps++
	return err
}

// tracedPortable is tracedPolicy for a runtime.PortablePolicy, so a traced
// stream migrates with its decision state exactly as an untraced one does.
type tracedPortable struct {
	tracedPolicy
	portable runtime.PortablePolicy
}

func (p *tracedPortable) SnapshotState() any {
	t0 := p.clk.now()
	s := p.portable.SnapshotState()
	p.t.other += p.clk.since(t0)
	return s
}

func (p *tracedPortable) RestoreState(state any) error {
	t0 := p.clk.now()
	err := p.portable.RestoreState(state)
	p.t.other += p.clk.since(t0)
	return err
}

// wrapPolicy returns pol behind a timing wrapper that implements
// runtime.PortablePolicy exactly when pol does.
func wrapPolicy(pol runtime.Policy, clk clock, t *policyTimes) runtime.Policy {
	base := tracedPolicy{inner: pol, clk: clk, t: t}
	if pp, ok := pol.(runtime.PortablePolicy); ok {
		return &tracedPortable{tracedPolicy: base, portable: pp}
	}
	return &base
}

// wrapFactory times a fleet policy factory and wraps every policy it builds.
func wrapFactory(f fleet.PolicyFactory, clk clock, t *policyTimes) fleet.PolicyFactory {
	return func(sys *zoo.System) (runtime.Policy, error) {
		t0 := clk.now()
		pol, err := f(sys)
		t.other += clk.since(t0)
		if err != nil {
			return nil, err
		}
		return wrapPolicy(pol, clk, t), nil
	}
}
