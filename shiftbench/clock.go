package main

import (
	goruntime "runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"testing"
	"time"
)

// clock reads host time through the benchmark timer of package testing.
// Simulation code in this module runs on virtual clocks, and the determinism
// lint forbids bare wall-clock reads; B.Elapsed is the standard API for a
// measurement harness, the same one cmd/bench takes its timings from.
type clock struct{ b *testing.B }

func (c clock) now() time.Duration { return c.b.Elapsed() }

// withClock runs fn once inside testing.Benchmark, handing it the
// benchmark's running timer. main pins -test.benchtime=1x so the harness
// calls the closure exactly once; the guard keeps a duration-based
// benchtime (the go test default) from re-running the whole benchmark.
func withClock(fn func(clock) error) error {
	var err error
	ran := false
	testing.Benchmark(func(b *testing.B) {
		if ran {
			return
		}
		ran = true
		err = fn(clock{b})
	})
	return err
}

// heapCounters are the cumulative allocation counters of the process.
type heapCounters struct {
	mallocs, bytes uint64
}

func readHeap() heapCounters {
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return heapCounters{mallocs: m.Mallocs, bytes: m.TotalAlloc}
}

// gcCounters are the cumulative garbage-collector counters of the process,
// read from runtime/metrics.
type gcCounters struct {
	cycles          uint64
	gcCPU, totalCPU float64
}

func readGC() gcCounters {
	s := []rtmetrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	var c gcCounters
	if s[0].Value.Kind() == rtmetrics.KindUint64 {
		c.cycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == rtmetrics.KindFloat64 {
		c.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == rtmetrics.KindFloat64 {
		c.totalCPU = s[2].Value.Float64()
	}
	return c
}

// peakRSSMB returns the process's resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the median of xs (the mean of the middle pair for an even
// count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload bypasses).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
