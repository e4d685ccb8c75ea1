// Top-level benchmark front-end: BenchmarkRepro runs every entry of the
// registry (benchmarks.go) as a sub-benchmark over one shared environment.
//
// Run with:
//
//	go test -run '^$' -bench . -benchmem
//	go test -run '^$' -bench 'Repro/TableIII' -benchmem
package repro

import (
	"sync"
	"testing"

	"repro/internal/experiments"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
	benchEnvErr  error
)

// env returns the shared characterization/graph environment.
func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv, benchEnvErr = experiments.NewEnv(1, experiments.DefaultValidationFrames)
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

// BenchmarkRepro runs the benchmark registry, one sub-benchmark per entry.
func BenchmarkRepro(b *testing.B) {
	e := env(b)
	for _, bm := range benchmarks {
		b.Run(bm.Name, func(b *testing.B) { bm.Run(b, e) })
	}
}
